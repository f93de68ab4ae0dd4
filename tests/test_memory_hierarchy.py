"""Memory hierarchy timing: level latencies, MSHR merging, prefetch."""

import pytest

from repro.memory import HierarchyConfig, MemoryHierarchy, Prefetcher


def _hierarchy(**overrides):
    config = HierarchyConfig(enable_prefetch=False, **overrides)
    return MemoryHierarchy(config)


class TestLatencies:
    def test_l1_hit_after_fill(self):
        m = _hierarchy()
        first = m.load(0, 0x1000)
        assert first > m.config.l1d_latency  # cold miss
        # wait for the fill to land, then hit
        second = m.load(first + 1, 0x1000)
        assert second == first + 1 + m.config.l1d_latency

    def test_cold_miss_goes_to_dram(self):
        m = _hierarchy()
        completion = m.load(0, 0x2000)
        assert completion >= m.config.llc_latency + m.config.dram_latency

    def test_l2_hit_latency(self):
        m = _hierarchy()
        done = m.load(0, 0x3000)
        # evict from L1 only
        m.l1d.invalidate(0x3000)
        second = m.load(done + 1, 0x3000)
        assert second - (done + 1) == m.config.l1d_latency + m.config.l2_latency

    def test_dram_bound_miss_counts_one_llc_access(self):
        # The LLC probe counts the access and the miss; nothing on the
        # way to DRAM counts them again.
        m = MemoryHierarchy()
        m.load(0, 0x100000, pc=7)
        assert (m.llc.stats.accesses, m.llc.stats.misses) == (1, 1)
        assert m.stats_table()["LLC"]["accesses"] == 1

    def test_ifetch_uses_l1i(self):
        m = _hierarchy()
        done = m.fetch(0, 0x100)
        hit = m.fetch(done + 1, 0x100)
        assert hit == done + 1 + m.config.l1i_latency


class TestMshr:
    def test_merge_same_block(self):
        m = _hierarchy()
        first = m.load(0, 0x4000)
        merged = m.load(2, 0x4008)  # same line, still in flight
        assert merged == first
        assert m.mshr_merges == 1

    def test_in_flight_hit_waits_for_fill(self):
        """A 'hit' on a line whose fill is still in flight cannot complete
        before the data arrives (the serial-pointer-chase case)."""
        m = _hierarchy()
        first = m.load(0, 0x5000)
        hit = m.load(5, 0x5000)  # same address: L1 'hits' instantly
        assert hit == max(first, 5 + m.config.l1d_latency)
        assert hit == first

    def test_hit_merges_only_while_the_fill_is_in_flight(self):
        """An L1 hit on a block still in flight counts a merge and waits
        for the fill; one whose own latency already covers the fill
        (completion exactly at the fill) counts none."""
        latency = HierarchyConfig().l1d_latency
        early = _hierarchy()
        done = early.load(0, 0x6000)
        assert early.load(done - latency - 1, 0x6000) == done
        assert early.mshr_merges == 1
        on_time = _hierarchy()
        done = on_time.load(0, 0x6000)
        assert on_time.load(done - latency, 0x6000) == done
        assert on_time.mshr_merges == 0

    def test_full_mshr_serializes(self):
        m = _hierarchy(mshr_entries=2)
        m.load(0, 0x10000)
        m.load(0, 0x20000)
        third = m.load(0, 0x30000)
        assert m.mshr_stalls == 1
        assert third > m.config.llc_latency + m.config.dram_latency

    def test_mshr_reaped_after_completion(self):
        m = _hierarchy(mshr_entries=1)
        done = m.load(0, 0x10000)
        # after completion, new misses do not stall
        m.load(done + 1, 0x20000)
        assert m.mshr_stalls == 0


class TestPrefetchTiming:
    def test_prefetch_is_not_instant(self):
        config = HierarchyConfig(enable_prefetch=True)
        m = MemoryHierarchy(config)
        # Train a stride stream from one PC.
        cycle = 0
        completions = []
        for i in range(8):
            done = m.load(cycle, 0x40000 + i * 64, pc=0x10)
            completions.append(done - cycle)
            cycle = done + 1
        # Prefetching must help eventually...
        assert min(completions[3:]) < completions[0]
        # ...but a prefetched line demanded immediately is not free:
        # issue a demand right after the prefetch train starts.
        m2 = MemoryHierarchy(HierarchyConfig(enable_prefetch=True))
        for i in range(3):
            m2.load(i, 0x50000 + i * 64, pc=0x20)
        demanded = m2.load(4, 0x50000 + 4 * 64, pc=0x999)
        assert demanded - 4 > m2.config.l1d_latency + m2.config.l2_latency

    def test_demand_merged_into_a_prefetch_leaves_l1_unfilled(self):
        """Pins a known quirk (DESIGN.md, modeling decision 4): a demand
        L1 miss on a block whose MSHR entry came from a prefetch merges
        and completes when the prefetch arrives, but nothing fills L1,
        because the prefetch filled only L2 and the LLC.  The next access
        after the entry is reaped pays L1 + L2, not an L1 hit.  A change
        that fills L1 on such a merge must flip this test."""
        m = MemoryHierarchy()
        cycle = 0
        for i in range(3):  # chained loads: each issues after the last
            cycle = m.load(cycle, 0x100000 + 64 * i, pc=7) + 1
        assert cycle == 525
        block = 0x1000C0 // 64
        assert m._mshr[block] == 542          # prefetched, in flight
        merges = m.mshr_merges
        assert m.load(525, 0x1000C0, pc=99) == 542
        assert m.mshr_merges == merges + 1
        assert not m.l1d.contains(0x1000C0)
        later = 542 + 1000
        assert m.load(later, 0x1000C0, pc=99) - later == \
            m.config.l1d_latency + m.config.l2_latency  # 17, not 3


class TestPrefetchers:
    def test_stride_detector_needs_confirmation(self):
        p = Prefetcher(threshold=2, degree=2)
        assert p.observe(100, pc=1) == [128]    # next line only
        assert p.observe(108, pc=1) == [128]    # stride learned
        assert p.observe(116, pc=1) == [128]    # confirmed once
        out = p.observe(124, pc=1)              # confident now
        assert out == [132, 140, 128]

    def test_stride_reset_on_change(self):
        p = Prefetcher(threshold=1, degree=1)
        p.observe(0, pc=1)
        p.observe(8, pc=1)
        assert p.observe(16, pc=1) == [24, 64]
        assert p.observe(100, pc=1) == [128]    # broken stride

    def test_next_line(self):
        assert Prefetcher(line_bytes=64).observe(130, pc=0) == [192]
        assert Prefetcher(line_bytes=128).observe(130, pc=0) == [256]

    def test_composite_deduplicates(self):
        p = Prefetcher(line_bytes=64)
        for i in range(4):
            p.observe(i * 64, pc=7)
        out = p.observe(4 * 64, pc=7)
        # The next line (320) is already the first strided candidate.
        assert out == [320, 384, 448, 512]


def test_stats_table_structure():
    m = _hierarchy()
    m.load(0, 0)
    table = m.stats_table()
    assert set(table) == {"L1I", "L1D", "L2", "LLC", "DRAM"}
    assert table["L1D"]["accesses"] == 1


def test_dram_row_conflicts_counted():
    m = _hierarchy()
    m.load(0, 0)
    m.load(0, 1 << 20)
    assert m.dram.accesses == 2
    assert m.dram.row_misses >= 1

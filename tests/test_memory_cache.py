"""Set-associative cache model."""

from collections import OrderedDict
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import Cache
from repro.memory.cache import CacheStats


def _cache(size=1024, ways=2, line=64, latency=3):
    return Cache("T", size, ways, line, latency)


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = _cache()
        assert not c.lookup(0x100)
        c.fill(0x100)
        assert c.lookup(0x100)

    def test_same_line_shares(self):
        c = _cache(line=64)
        c.fill(0x100)
        assert c.lookup(0x100 + 63)
        assert not c.lookup(0x100 + 64)

    def test_stats(self):
        c = _cache()
        c.lookup(0)
        c.fill(0)
        c.lookup(0)
        assert c.stats.accesses == 2
        assert c.stats.hits == 1
        assert c.stats.misses == 1
        assert c.stats.hit_rate == 0.5

    def test_contains_has_no_side_effects(self):
        c = _cache()
        c.fill(0)
        before = c.stats.accesses
        assert c.contains(0)
        assert c.stats.accesses == before

    def test_invalidate(self):
        c = _cache()
        c.fill(0)
        c.invalidate(0)
        assert not c.contains(0)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache("bad", 1024, 2, 100, 1)  # non-power-of-two line
        with pytest.raises(ValueError):
            Cache("bad", 64, 4, 64, 1)  # zero sets


class TestReplacement:
    def test_lru_evicts_least_recent(self):
        # 2-way, line 64, size 128 -> 1 set
        c = _cache(size=128, ways=2, line=64)
        c.fill(0 * 64)
        c.fill(1 * 64)
        c.lookup(0)           # touch line 0 -> MRU
        c.fill(2 * 64)        # evicts line 1
        assert c.contains(0)
        assert not c.contains(64)
        assert c.contains(128)
        assert c.stats.evictions == 1

    def test_dirty_eviction_reports_writeback(self):
        c = _cache(size=128, ways=1, line=64)
        c.fill(0, dirty=True)
        victim = c.fill(64)  # wait: different set? size128/ways1/line64 -> 2 sets
        assert victim is None  # maps to the other set
        victim = c.fill(128)  # same set as 0
        assert victim == 0
        assert c.stats.writebacks == 1

    def test_write_marks_dirty(self):
        c = _cache(size=64, ways=1, line=64)
        c.fill(0)
        c.lookup(0, is_write=True)
        assert c.fill(64) == 0  # writeback of the dirtied line

    def test_clean_eviction_no_writeback(self):
        c = _cache(size=64, ways=1, line=64)
        c.fill(0)
        assert c.fill(64) is None
        assert c.stats.writebacks == 0

    def test_refill_existing_keeps_one_copy(self):
        c = _cache()
        c.fill(0)
        c.fill(0)
        assert c.resident_blocks == 1


class TestPrefetchTagging:
    def test_prefetch_hit_counted_once(self):
        c = _cache()
        c.fill(0, prefetched=True)
        c.lookup(0)
        c.lookup(0)
        assert c.stats.prefetch_fills == 1
        assert c.stats.prefetch_hits == 1


@settings(max_examples=30, deadline=None)
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=200))
def test_occupancy_never_exceeds_capacity(addresses):
    """Property: resident blocks never exceed sets x ways, and a just-filled
    block is always resident."""
    c = _cache(size=512, ways=2, line=64)  # 4 sets x 2 ways = 8 blocks
    for addr in addresses:
        if not c.lookup(addr):
            c.fill(addr)
        assert c.contains(addr)
        assert c.resident_blocks <= 8


@settings(max_examples=20, deadline=None)
@given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 12), min_size=1, max_size=100))
def test_stats_account_every_access(addresses):
    c = _cache()
    for addr in addresses:
        c.lookup(addr) or c.fill(addr)
    assert c.stats.hits + c.stats.misses == c.stats.accesses == len(addresses)


class _ReferenceCache:
    """The tag store :class:`Cache` used to keep: one ``OrderedDict`` per
    set holding a ``{"dirty", "prefetched"}`` dict per line.  The flat
    tag store must match it call for call."""

    def __init__(self, size_bytes, ways, line_bytes):
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        self._line_shift = line_bytes.bit_length() - 1
        self._sets = {}
        self.stats = CacheStats()

    def lookup(self, addr, is_write=False, update_stats=True):
        block = addr >> self._line_shift
        target_set = self._sets.get(block % self.num_sets)
        if update_stats:
            self.stats.accesses += 1
        if target_set is not None and block in target_set:
            target_set.move_to_end(block)
            line = target_set[block]
            if is_write:
                line["dirty"] = True
            if update_stats:
                self.stats.hits += 1
                if line.pop("prefetched", False):
                    self.stats.prefetch_hits += 1
            return True
        if update_stats:
            self.stats.misses += 1
        return False

    def contains(self, addr):
        block = addr >> self._line_shift
        target_set = self._sets.get(block % self.num_sets)
        return target_set is not None and block in target_set

    def fill(self, addr, dirty=False, prefetched=False):
        block = addr >> self._line_shift
        target_set = self._sets.setdefault(block % self.num_sets, OrderedDict())
        if block in target_set:
            target_set.move_to_end(block)
            if dirty:
                target_set[block]["dirty"] = True
            return None
        writeback = None
        if len(target_set) >= self.ways:
            victim_block, victim = target_set.popitem(last=False)
            self.stats.evictions += 1
            if victim["dirty"]:
                self.stats.writebacks += 1
                writeback = victim_block << self._line_shift
        target_set[block] = {"dirty": dirty, "prefetched": prefetched}
        if prefetched:
            self.stats.prefetch_fills += 1
        return writeback

    def invalidate(self, addr):
        block = addr >> self._line_shift
        target_set = self._sets.get(block % self.num_sets)
        if target_set is not None:
            target_set.pop(block, None)

    @property
    def resident_blocks(self):
        return sum(len(s) for s in self._sets.values())


_OPS = st.lists(st.tuples(
    st.sampled_from(["lookup", "touch", "fill", "invalidate", "contains"]),
    # 8 blocks over 2 sets: conflicts evict and re-hit blocks often.
    st.integers(min_value=0, max_value=8 * 64 - 1),
    st.booleans(), st.booleans()), min_size=10, max_size=200)


@settings(max_examples=200, deadline=None)
@given(ways=st.sampled_from([1, 2, 4]), ops=_OPS)
def test_flat_tag_store_matches_ordered_dict_reference(ways, ops):
    """Random counted probes (writes), uncounted probes, fills (dirty,
    prefetched) and invalidations, by address and by block number: every
    return value, every counter and the resident count agree with the
    reference model."""
    size = 2 * ways * 64  # 2 sets
    cache = Cache("T", size, ways, 64, 3)
    reference = _ReferenceCache(size, ways, 64)
    for kind, addr, first, second in ops:
        block = addr >> 6
        if kind == "lookup":
            hit = (cache.probe_block(block, first) if second
                   else cache.lookup(addr, is_write=first))
            assert hit == reference.lookup(addr, is_write=first)
        elif kind == "touch":
            assert cache.touch_block(block) == \
                reference.lookup(addr, update_stats=False)
        elif kind == "fill":
            args = dict(dirty=first, prefetched=second)
            assert cache.fill_block(block, first, second) == \
                reference.fill(addr, **args)
        elif kind == "invalidate":
            cache.invalidate(addr)
            reference.invalidate(addr)
        else:
            present = cache.has_block(block) if first else cache.contains(addr)
            assert present == reference.contains(addr)
        assert asdict(cache.stats) == asdict(reference.stats)
        assert cache.resident_blocks == reference.resident_blocks
        # Same blocks per set in the same LRU -> MRU order, same marks.
        assert cache._sets == {index: list(lines)
                               for index, lines in reference._sets.items()}
        lines = {block: line for lines in reference._sets.values()
                 for block, line in lines.items()}
        assert cache._dirty == {b for b, line in lines.items() if line["dirty"]}
        assert cache._prefetched == {b for b, line in lines.items()
                                     if line.get("prefetched")}


class TestUncountedProbe:
    def test_keeps_lru_and_dirty_but_counts_nothing(self):
        """``touch_block``, the prefetch filter's LLC probe."""
        c = _cache(size=128, ways=2, line=64)  # one set
        c.fill(0, dirty=True, prefetched=True)
        c.fill(64)
        before = asdict(c.stats)
        assert c.touch_block(0)
        assert not c.touch_block(2)
        assert asdict(c.stats) == before
        assert c.fill(128) is None      # 0 is MRU now: 64 is the victim
        assert c.fill(192) == 0         # then 0 goes, still dirty: written back
        c.fill(0, prefetched=True)
        c.touch_block(0)
        c.lookup(0)                     # first counted hit claims the mark
        c.lookup(0)
        assert c.stats.prefetch_hits == 1

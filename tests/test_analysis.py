"""Analysis package: region classification, lifetime shares, timing."""

import pytest

from repro.analysis import (
    atomic_ratio,
    classify_regions,
    lifetime_shares,
    atomic_event_timing,
    timeline_table,
)
from repro.frontend import run_program
from repro.isa import RegClass, assemble
from repro.pipeline import Core, RegisterEventLog, TimelineProbe, fast_test_config


def _report(src):
    return classify_regions(run_program(assemble(src)))


class TestRegionClassifier:
    def test_pure_alu_chain_is_atomic(self):
        report = _report("""
            movi r1, 1
            add r2, r1, r1
            add r2, r2, r1
            halt
        """)
        chains = [c for c in report.chains if c.closed]
        # r2's first definition is redefined with no breaker in between
        assert any(c.atomic for c in chains)

    def test_branch_breaks_non_branch_region(self):
        report = _report("""
            movi r1, 1
            add r2, r1, r1
            cmp r1, r2
            beq skip
        skip:
            add r2, r1, r1
            halt
        """)
        r2_chains = [c for c in report.chains
                     if c.closed and c.slot == 2 and c.file is RegClass.INT]
        assert r2_chains
        assert all(not c.non_branch for c in r2_chains)
        # but no memory/div involved: still non-except
        assert all(c.non_except for c in r2_chains)

    def test_load_breaks_non_except_region(self):
        report = _report("""
            movi r1, 4096
            add r2, r1, r1
            ld r3, r1, 0
            add r2, r1, r1
            halt
        """)
        r2_chains = [c for c in report.chains if c.closed and c.slot == 2]
        assert all(not c.non_except for c in r2_chains)
        assert all(c.non_branch for c in r2_chains)
        assert all(not c.atomic for c in r2_chains)

    def test_region_may_begin_with_load(self):
        """The load's own destination chain can still be atomic."""
        report = _report("""
            movi r1, 4096
            ld r3, r1, 0
            add r4, r3, r3
            movi r3, 5
            halt
        """)
        r3_chains = [c for c in report.chains if c.closed and c.slot == 3]
        assert any(c.atomic for c in r3_chains)

    def test_redefining_load_is_not_atomic(self):
        report = _report("""
            movi r1, 4096
            movi r3, 7
            ld r3, r1, 0
            halt
        """)
        r3_chains = [c for c in report.chains if c.closed and c.slot == 3]
        assert all(not c.atomic for c in r3_chains)

    def test_consumer_counting(self):
        report = _report("""
            movi r1, 1
            add r2, r1, r1
            add r3, r2, r2
            add r4, r2, r1
            movi r2, 0
            halt
        """)
        chain = next(c for c in report.chains
                     if c.closed and c.slot == 2 and c.consumers)
        assert chain.consumers == 3  # two reads in add r3 + one in add r4

    def test_open_chains_counted_not_atomic(self):
        report = _report("movi r1, 1\nhalt")
        open_chains = [c for c in report.chains if not c.closed]
        assert open_chains
        assert report.ratio("atomic") < 1.0

    def test_ratio_kinds_ordering(self):
        """atomic <= min(non_branch, non_except) by definition."""
        report = _report("""
            movi r1, 4096
            movi r2, 8
            movi r3, 1
        loop:
            ld r4, r1, 0
            add r5, r4, r3
            xor r5, r5, r4
            sub r2, r2, r3
            test r2, r2
            bne loop
            halt
        """)
        atomic = report.ratio("atomic")
        assert atomic <= report.ratio("non_branch") + 1e-12
        assert atomic <= report.ratio("non_except") + 1e-12

    def test_unknown_kind_rejected(self):
        report = _report("halt")
        with pytest.raises(ValueError):
            report.ratio("bogus")

    def test_consumer_histogram(self):
        report = _report("""
            movi r1, 1
            add r2, r1, r1
            add r3, r2, r1
            movi r2, 0
            halt
        """)
        histogram = report.consumer_histogram()
        assert sum(histogram.values()) == len(report.atomic_chains())


class TestLifetime:
    def _records(self, src, scheme="baseline"):
        trace = run_program(assemble(src))
        core = Core(fast_test_config(scheme=scheme), trace)
        log = core.add_probe(RegisterEventLog())
        core.run()
        return log.records

    LOOP = """
        movi r1, 20
        movi r3, 1
        movi r5, 4096
    loop:
        ld r2, r5, 0
        add r4, r2, r3
        xor r4, r4, r2
        sub r1, r1, r3
        test r1, r1
        bne loop
        halt
    """

    def test_shares_sum_to_one(self):
        shares = lifetime_shares(self._records(self.LOOP), RegClass.INT)
        assert shares.records > 0
        assert shares.in_use + shares.unused + shares.verified_unused == pytest.approx(1.0)

    def test_all_shares_nonnegative(self):
        shares = lifetime_shares(self._records(self.LOOP))
        assert shares.in_use >= 0
        assert shares.unused >= 0
        assert shares.verified_unused >= 0

    def test_empty_records(self):
        shares = lifetime_shares([])
        assert shares.records == 0
        assert shares.in_use == 0.0

    def test_event_ordering_in_records(self):
        for record in self._records(self.LOOP):
            assert record.complete
            assert record.alloc_cycle <= record.redefine_cycle
            assert record.redefine_cycle <= record.redefiner_commit_cycle
            if record.redefiner_precommit_cycle is not None:
                assert record.redefiner_precommit_cycle <= record.redefiner_commit_cycle


class TestTiming:
    def test_atomic_timing_ordering(self):
        src = TestLifetime.LOOP
        trace = run_program(assemble(src))
        core = Core(fast_test_config(), trace)
        log = core.add_probe(RegisterEventLog())
        core.run()
        report = classify_regions(trace)
        timing = atomic_event_timing(log.records, report)
        assert timing.chains > 0
        assert timing.rename_to_redefine <= timing.rename_to_commit
        assert timing.rename_to_consume <= timing.rename_to_commit

    def test_timeline_table_renders(self):
        trace = run_program(assemble(TestLifetime.LOOP))
        core = Core(fast_test_config(), trace)
        timeline = core.add_probe(TimelineProbe())
        core.run()
        table = timeline_table(timeline.rows, trace, start_seq=3, count=5)
        assert "Re" in table and "Pr" in table
        assert len(table.splitlines()) == 6  # header + 5 rows


def test_atomic_ratio_convenience(atomic_program):
    trace = run_program(atomic_program)
    assert 0 < atomic_ratio(trace) < 1

"""Deeper pipeline behaviours: recovery timing, the register event log,
frontend limits, store-to-load forwarding, and DRAM modeling details."""

import dataclasses

import pytest

from repro.frontend import run_program
from repro.isa import Instruction, Opcode, RegClass, assemble, ireg
from repro.memory import DramModel
from repro.pipeline import Core, ROBEntry, fast_test_config, golden_cove_config
from repro.pipeline.state import WORD, StoreRecord
from repro.pipeline.stats import RegisterEventLog
from repro.rename import DestRecord
from repro.workloads import build_trace


class TestRecoveryTiming:
    def test_more_flushed_instructions_cost_more_recovery(self, branchy_program):
        """Without an exact checkpoint, recovery walks the ROB; a deeper
        walk must cost more cycles (recovery_walk_width models it)."""
        trace = run_program(branchy_program)
        fast = dataclasses.replace(
            fast_test_config(predictor="always_taken"), recovery_walk_width=64
        )
        slow = dataclasses.replace(
            fast_test_config(predictor="always_taken"), recovery_walk_width=1
        )
        fast_cycles = Core(fast, trace).run().cycles
        slow_cycles = Core(slow, trace).run().cycles
        assert slow_cycles >= fast_cycles

    def test_redirect_penalty_costs_cycles(self, branchy_program):
        trace = run_program(branchy_program)
        cheap = dataclasses.replace(
            fast_test_config(predictor="always_taken"), redirect_penalty=0
        )
        dear = dataclasses.replace(
            fast_test_config(predictor="always_taken"), redirect_penalty=12
        )
        assert Core(dear, trace).run().cycles > Core(cheap, trace).run().cycles

    def test_checkpoints_taken_on_low_confidence(self, branchy_program):
        trace = run_program(branchy_program)
        core = Core(fast_test_config(predictor="tage"), trace)
        core.run()
        # a data-dependent 50/50 branch stream must trigger checkpointing
        assert core.checkpoints.taken > 0


class TestFrontendLimits:
    def test_fetch_width_bounds_throughput(self):
        src = "movi r1, 1\n" + "add r2, r1, r1\n" * 200 + "halt"
        trace = run_program(assemble(src))
        narrow = dataclasses.replace(fast_test_config(), fetch_width=1)
        wide = dataclasses.replace(fast_test_config(), fetch_width=4)
        assert Core(narrow, trace).run().cycles > Core(wide, trace).run().cycles

    def test_frontend_depth_adds_startup_latency(self, loop_trace):
        shallow = dataclasses.replace(fast_test_config(), frontend_depth=1)
        deep = dataclasses.replace(fast_test_config(), frontend_depth=12)
        assert Core(deep, loop_trace).run().cycles > Core(shallow, loop_trace).run().cycles


class TestEventLog:
    """The log's probe handlers, called with the payloads the stages emit."""

    def _entry(self, seq, dest=None, sources=(), wrong_path=False):
        """An entry renaming ``dest`` = (new ptag, displaced ptag) and
        reading the INT ptags in *sources*."""
        instr = Instruction(Opcode.ADD, dests=(ireg(1),), srcs=(ireg(2), ireg(3)))
        entry = ROBEntry(seq=seq, trace_seq=-1 if wrong_path else seq, pc=0,
                         instr=instr, next_pc=1, wrong_path=wrong_path)
        if dest is not None:
            entry.dests = [DestRecord(RegClass.INT, 1, *dest, new_epoch=1)]
        entry.src_ptags = [(RegClass.INT, 2, ptag) for ptag in sources]
        return entry

    def test_chain_lifecycle(self):
        log = RegisterEventLog()
        log.on_allocate(self._entry(0, dest=(5, 1)), cycle=10)
        log.on_issue(self._entry(1, sources=(5,)), cycle=14)
        log.on_issue(self._entry(2, sources=(5, 5)), cycle=18)
        redefiner = self._entry(3, dest=(6, 5))
        log.on_allocate(redefiner, cycle=20)
        log.on_precommit(redefiner, cycle=25)
        log.on_commit(redefiner, cycle=30)
        assert len(log.records) == 1
        record = log.records[0]
        assert (record.ptag, record.alloc_seq, record.alloc_cycle) == (5, 0, 10)
        assert record.last_consume_cycle == 18
        assert record.consumer_count == 3
        assert (record.redefine_seq, record.redefine_cycle) == (3, 20)
        assert record.redefiner_precommit_cycle == 25
        assert record.redefiner_commit_cycle == 30
        assert record.complete
        assert not log._pending

    def test_flushed_redefiner_reopens_chain(self):
        log = RegisterEventLog()
        log.on_allocate(self._entry(0, dest=(5, 1)), cycle=10)
        ghost = self._entry(3, dest=(6, 5))
        log.on_allocate(ghost, cycle=20)
        log.on_flush([ghost], "interrupt", cycle=22)
        real = self._entry(7, dest=(8, 5))
        log.on_allocate(real, cycle=40)
        log.on_commit(ghost, cycle=45)  # a flushed seq closes nothing
        assert not log.records
        log.on_commit(real, cycle=50)
        assert len(log.records) == 1
        assert (log.records[0].redefine_seq, log.records[0].redefine_cycle) == (7, 40)

    def test_wrong_path_allocations_ignored(self):
        log = RegisterEventLog()
        log.on_allocate(self._entry(0, dest=(5, 1), wrong_path=True), cycle=10)
        assert (RegClass.INT, 5) not in log._open
        log.on_allocate(self._entry(1, dest=(6, 2)), cycle=11)
        log.on_issue(self._entry(2, sources=(6,), wrong_path=True), cycle=12)
        redefiner = self._entry(3, dest=(7, 6), wrong_path=True)
        log.on_allocate(redefiner, cycle=20)
        assert not log._pending  # wrong-path redefiner ignored
        chain = log._open[(RegClass.INT, 6)]
        assert chain.consumer_count == 0  # wrong-path consumer ignored
        assert chain.redefine_seq is None


class TestStoreForwarding:
    @pytest.mark.parametrize("scheme", ["baseline", "atr"])
    def test_forwarded_loads_skip_the_cache(self, scheme):
        """A load an older issued store fully covers takes its value from
        the store and skips the cache.  A quarter of exchange2's
        correct-path loads forward, which holds its L1D accesses at 492;
        without forwarding they read 562."""
        trace = build_trace("548.exchange2_r", 3000)
        core = Core(golden_cove_config(rf_size=64, scheme=scheme), trace)
        core.run()
        assert core.memory.stats_table()["L1D"]["accesses"] == 492

    def test_each_word_takes_the_youngest_older_issued_store(self):
        """Forwarding over hand-built store records: per word, the
        youngest older store that has issued and recorded the word."""
        core = Core(fast_test_config(), run_program(assemble("halt")))
        state = core.state
        unit = core.stages.execute_unit
        base = 0x1000

        def store(seq, addr, values, issued=True):
            record = StoreRecord(seq)
            record.issued = issued
            record.words = [(addr + i * WORD, v) for i, v in enumerate(values)]
            state.stores[seq] = record
            for i in range(len(values) if values else 1):
                state.store_words.setdefault(addr + i * WORD, []).append(seq)

        store(1, base, [10])
        store(2, base, [20, 21, 22, 23])    # a VST's four lanes
        store(3, base + WORD, [30])
        store(4, base, [40], issued=False)  # not issued: passed over
        store(5, base, [])                  # issued on the wrong path
        store(7, base, [70])                # younger than the loads
        forward = unit._forward_from_stores
        assert forward(6, base, 1) == {base: 20}
        assert forward(2, base, 1) == {base: 10}
        assert forward(1, base, 1) == {}
        assert forward(8, base, 1) == {base: 70}
        # A VLD: lane 1 from the younger scalar store, the rest from the VST.
        assert forward(6, base, 4) == {
            base: 20, base + WORD: 30, base + 2 * WORD: 22,
            base + 3 * WORD: 23}
        assert forward(6, base + 4 * WORD, 4) == {}  # words no store writes


class TestDram:
    def test_row_hit_cheaper_than_row_miss(self):
        dram = DramModel()
        first = dram.access(0)          # opens the row
        hit = dram.access(64)           # same row
        miss = dram.access(1 << 22)     # different row, same bank mapping
        assert hit == dram.latency
        assert first > hit or miss > hit

    def test_accesses_counted(self):
        dram = DramModel()
        dram.access(0)
        dram.access(4096)
        assert dram.accesses == 2


class TestSchemeStatsSurface:
    def test_early_and_total_frees(self, atomic_program):
        trace = run_program(atomic_program)
        core = Core(fast_test_config(rf_size=30, scheme="combined"), trace)
        core.run()
        s = core.scheme.stats
        assert s.early_frees == s.atr_frees + s.nonspec_frees
        assert s.total_frees == s.commit_frees + s.flush_frees + s.early_frees
        assert s.atr_claims >= s.atr_frees - s.flush_frees

    def test_bulk_marking_counted(self, memory_program):
        trace = run_program(memory_program)
        core = Core(fast_test_config(rf_size=40, scheme="atr"), trace)
        core.run()
        s = core.scheme.stats
        assert s.bulk_mark_events > 0
        assert s.bulk_marked_ptags > 0

    def test_claim_consumer_histogram_populated(self, atomic_program):
        trace = run_program(atomic_program)
        core = Core(fast_test_config(rf_size=40, scheme="atr"), trace)
        core.run()
        assert sum(core.scheme.stats.claim_consumers.values()) == \
            core.scheme.stats.atr_claims

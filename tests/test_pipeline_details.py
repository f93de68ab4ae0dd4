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

    def test_icache_disabled_still_correct(self, loop_program):
        from repro.frontend import final_state

        trace = run_program(loop_program)
        config = dataclasses.replace(fast_test_config(), model_icache=False)
        core = Core(config, trace)
        core.run()
        assert core.architectural_state().int_regs == final_state(loop_program).int_regs


class TestEventLog:
    def _entry(self, seq, wrong_path=False):
        instr = Instruction(Opcode.ADD, dests=(ireg(1),), srcs=(ireg(2), ireg(3)))
        return ROBEntry(seq=seq, trace_seq=-1 if wrong_path else seq, pc=0,
                        instr=instr, next_pc=1, wrong_path=wrong_path)

    def test_chain_lifecycle(self):
        log = RegisterEventLog()
        log.on_allocate(RegClass.INT, 5, seq=0, cycle=10, wrong_path=False)
        log.on_consume(RegClass.INT, 5, cycle=14)
        log.on_consume(RegClass.INT, 5, cycle=18)
        redefiner = self._entry(3)
        log.on_redefine(RegClass.INT, 5, redefiner, cycle=20)
        log.on_redefiner_precommit(redefiner, cycle=25)
        log.on_redefiner_commit(redefiner, cycle=30)
        assert len(log.records) == 1
        record = log.records[0]
        assert record.alloc_cycle == 10
        assert record.last_consume_cycle == 18
        assert record.consumer_count == 2
        assert record.redefine_cycle == 20
        assert record.redefiner_precommit_cycle == 25
        assert record.redefiner_commit_cycle == 30
        assert record.complete

    def test_flushed_redefiner_reopens_chain(self):
        log = RegisterEventLog()
        log.on_allocate(RegClass.INT, 5, seq=0, cycle=10, wrong_path=False)
        ghost = self._entry(3)
        log.on_redefine(RegClass.INT, 5, ghost, cycle=20)
        log.on_redefiner_flush(ghost)
        real = self._entry(7)
        log.on_redefine(RegClass.INT, 5, real, cycle=40)
        log.on_redefiner_commit(real, cycle=50)
        assert len(log.records) == 1
        assert log.records[0].redefine_cycle == 40

    def test_wrong_path_allocations_ignored(self):
        log = RegisterEventLog()
        log.on_allocate(RegClass.INT, 5, seq=0, cycle=10, wrong_path=True)
        log.on_consume(RegClass.INT, 5, cycle=12)
        assert not log.records
        redefiner = self._entry(3, wrong_path=True)
        log.on_allocate(RegClass.INT, 6, seq=1, cycle=11, wrong_path=False)
        log.on_redefine(RegClass.INT, 6, redefiner, cycle=20)
        assert not redefiner.pending_lifetimes  # wrong-path redefiner ignored


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

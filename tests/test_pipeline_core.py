"""Pipeline behaviour tests: timing sanity, stalls, flushes, config."""

import dataclasses

import pytest

from repro.frontend import final_state, run_program
from repro.isa import assemble
from repro.pipeline import Core, DeadlockError, TimelineProbe, fast_test_config, golden_cove_config


def _simulate(program, **config_kwargs):
    trace = run_program(program)
    extra = {k: v for k, v in config_kwargs.items() if k in ("rf_size", "scheme", "predictor")}
    config = fast_test_config(**extra)
    rest = {k: v for k, v in config_kwargs.items() if k not in extra}
    if rest:
        config = dataclasses.replace(config, **rest)
    core = Core(config, trace)
    stats = core.run()
    return core, stats


class TestTimingSanity:
    def test_dependent_chain_is_serial(self):
        src = "movi r1, 1\n" + "add r1, r1, r1\n" * 30 + "halt"
        core, stats = _simulate(assemble(src))
        # 30 dependent 1-cycle adds: at least 30 cycles end to end
        assert stats.cycles >= 30

    def test_independent_ops_overlap(self):
        dependent = "movi r1, 1\n" + "add r1, r1, r1\n" * 24 + "halt"
        independent = "movi r1, 1\n" + "".join(
            f"add r{2 + (i % 6)}, r1, r1\n" for i in range(24)
        ) + "halt"
        _, dep_stats = _simulate(assemble(dependent))
        _, ind_stats = _simulate(assemble(independent))
        assert ind_stats.cycles < dep_stats.cycles

    def test_ipc_bounded_by_width(self):
        src = "movi r1, 1\n" + "add r2, r1, r1\nadd r3, r1, r1\n" * 40 + "halt"
        _, stats = _simulate(assemble(src))
        assert stats.ipc <= 4.0  # fast config rename width

    def test_cache_miss_slower_than_hit(self):
        hit = """
            movi r1, 4096
            movi r2, 20
            movi r3, 1
        loop:
            ld r4, r1, 0
            sub r2, r2, r3
            test r2, r2
            bne loop
            halt
        """
        miss = """
            movi r1, 4096
            movi r5, 8192
            movi r2, 20
            movi r3, 1
        loop:
            ld r4, r1, 0
            add r1, r1, r5
            sub r2, r2, r3
            test r2, r2
            bne loop
            halt
        """
        from repro.memory import HierarchyConfig
        no_prefetch = HierarchyConfig(enable_prefetch=False)
        _, hit_stats = _simulate(assemble(hit), memory=no_prefetch)
        _, miss_stats = _simulate(assemble(miss), memory=no_prefetch)
        assert miss_stats.cycles > hit_stats.cycles * 1.3

    def test_commit_cycle_counts_match(self, loop_trace):
        core = Core(fast_test_config(), loop_trace)
        stats = core.run()
        assert stats.committed == len(loop_trace)


class TestStalls:
    def test_small_rf_causes_freelist_stalls(self, atomic_program):
        core_small, small = _simulate(atomic_program, rf_size=26)
        core_big, big = _simulate(atomic_program, rf_size=64)
        assert small.stall_freelist > 0
        assert big.ipc >= small.ipc

    def test_reserve_watermark_never_breached(self, atomic_program):
        core, _ = _simulate(atomic_program, rf_size=26)
        for file in core.rename_unit.files.values():
            assert file.freelist.min_free_watermark >= 0

    def test_tiny_rf_rejected(self):
        with pytest.raises(ValueError):
            fast_test_config(rf_size=18)


class TestMisprediction:
    def test_forced_mispredicts_flush(self, branchy_program):
        core, stats = _simulate(branchy_program, predictor="always_taken")
        assert stats.flushes > 0
        assert stats.wrong_path_renamed > 0

    def test_perfect_story_fewer_flushes_with_tage(self, branchy_program):
        _, bad = _simulate(branchy_program, predictor="always_taken")
        _, good = _simulate(branchy_program, predictor="tage")
        assert good.ipc >= bad.ipc

    def test_wrong_path_instructions_never_commit(self, branchy_program):
        trace = run_program(branchy_program)
        core = Core(fast_test_config(predictor="always_taken"), trace)
        stats = core.run()
        assert stats.committed == len(trace)

    def test_architectural_state_survives_flushes(self, branchy_program):
        golden = final_state(branchy_program)
        core, _ = _simulate(branchy_program, predictor="always_not_taken")
        state = core.architectural_state()
        assert state.int_regs == golden.int_regs


class TestStoreLoadForwarding:
    def test_store_to_load_value(self):
        src = """
            movi r1, 4096
            movi r2, 77
            st r2, r1, 0
            ld r3, r1, 0
            add r4, r3, r3
            halt
        """
        core, _ = _simulate(assemble(src))
        assert core.architectural_state().int_regs[3] == 77
        assert core.architectural_state().int_regs[4] == 154

    def test_load_does_not_bypass_older_conflicting_store(self):
        src = """
            movi r1, 4096
            movi r2, 5
            st r2, r1, 0
            movi r2, 9
            st r2, r1, 0
            ld r3, r1, 0
            halt
        """
        core, _ = _simulate(assemble(src))
        assert core.architectural_state().int_regs[3] == 9


class TestEndConditions:
    def test_conservation_check_runs(self, loop_trace):
        core = Core(fast_test_config(scheme="combined"), loop_trace)
        core.run()
        core.check_conservation()  # must not raise

    def test_conservation_requires_empty_rob(self, loop_trace):
        core = Core(fast_test_config(), loop_trace)
        for _ in range(30):  # get instructions in flight
            core.cycle += 1
            core.step()
        with pytest.raises(RuntimeError):
            core.check_conservation()

    def test_max_cycles_deadlock_detection(self, loop_trace):
        core = Core(fast_test_config(), loop_trace)
        with pytest.raises(DeadlockError):
            core.run(max_cycles=3)

    def test_truncated_trace_drains(self, branchy_program):
        trace = run_program(branchy_program)
        trace.entries = trace.entries[:50]  # no trailing halt
        core = Core(fast_test_config(), trace)
        stats = core.run()
        assert stats.committed == 50


class TestConfig:
    def test_golden_cove_matches_table1(self):
        config = golden_cove_config()
        assert config.fetch_width == 6
        assert config.retire_width == 8
        assert config.rob_size == 512
        assert config.rs_size == 160
        assert config.lq_size == 96
        assert config.sq_size == 64
        assert config.alu_ports == 5
        assert config.load_ports == 3
        assert config.store_ports == 2
        assert config.memory.l1d_size == 48 * 1024
        assert config.memory.l2_latency == 14
        assert config.memory.llc_latency == 40

    def test_with_rf_size(self):
        config = golden_cove_config().with_rf_size(64)
        assert config.int_rf_size == 64
        assert config.vec_rf_size == 64

    def test_with_scheme(self):
        config = golden_cove_config().with_scheme("atr", redefine_delay=2)
        assert config.scheme == "atr"
        assert config.redefine_delay == 2

    def test_freelist_reserve_rule(self):
        config = golden_cove_config()
        # MAX_DEST x rename width, with at most one destination per
        # instruction.
        assert config.freelist_reserve == config.rename_width

    def test_unknown_predictor_rejected(self, loop_trace):
        config = dataclasses.replace(fast_test_config(), predictor="psychic")
        with pytest.raises(ValueError):
            Core(config, loop_trace)


class TestTimeline:
    def test_stage_order_per_instruction(self, atomic_program):
        trace = run_program(atomic_program)
        core = Core(fast_test_config(), trace)
        timeline = core.add_probe(TimelineProbe())
        core.run()
        assert len(timeline.rows) == len(trace)
        for _seq, _pc, rename, issue, complete, precommit, commit in timeline.rows:
            assert rename <= issue <= complete <= commit
            assert precommit <= commit

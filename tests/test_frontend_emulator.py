"""Unit tests for the functional emulator (golden model)."""

import pytest

from repro.frontend import EmulationError, Emulator, final_state, run_program
from repro.isa import ProgramBuilder, assemble, ireg, vreg


def _run(src, **kwargs):
    return final_state(assemble(src), **kwargs)


class TestArithmetic:
    def test_basic_loop(self, loop_program):
        state = final_state(loop_program)
        # loop: r2 counts up, r1 counts down until equal (30 -> 15/15)
        assert state.int_regs[1] == 15
        assert state.int_regs[2] == 15

    def test_wraparound(self):
        state = _run("movi r1, -1\nmovi r2, 2\nadd r3, r1, r2\nhalt")
        assert state.int_regs[3] == 1

    def test_division_by_zero_yields_zero(self):
        state = _run("movi r1, 10\nmovi r2, 0\ndiv r3, r1, r2\nhalt")
        assert state.int_regs[3] == 0


class TestMemory:
    def test_store_then_load(self):
        state = _run("""
            movi r1, 4096
            movi r2, 99
            st r2, r1, 8
            ld r3, r1, 8
            halt
        """)
        assert state.int_regs[3] == 99
        assert state.memory[4104] == 99

    def test_uninitialized_load_is_zero(self):
        state = _run("movi r1, 9000\nld r2, r1, 0\nhalt")
        assert state.int_regs[2] == 0

    def test_initial_data_image(self):
        state = _run(".word 512 77\nmovi r1, 512\nld r2, r1, 0\nhalt")
        assert state.int_regs[2] == 77

    def test_vector_memory_round_trip(self):
        b = ProgramBuilder()
        b.words(1024, [1, 2, 3, 4])
        b.movi(ireg(1), 1024)
        b.vld(vreg(0), ireg(1), 0)
        b.vadd(vreg(1), vreg(0), vreg(0))
        b.vst(vreg(1), ireg(1), 64)
        b.vld(vreg(2), ireg(1), 64)
        state = final_state(b.build())
        assert state.vec_regs[2] == (2, 4, 6, 8)


class TestControlFlow:
    def test_taken_branch_records_target(self, loop_program):
        trace = run_program(loop_program)
        takens = [e for e in trace if e.instr.is_conditional_branch and e.taken]
        assert takens
        assert all(e.next_pc == e.instr.target for e in takens)

    def test_not_taken_falls_through(self, loop_program):
        trace = run_program(loop_program)
        not_taken = [e for e in trace if e.instr.is_conditional_branch and not e.taken]
        assert all(e.next_pc == e.pc + 1 for e in not_taken)

    def test_call_and_ret(self, call_program):
        state = final_state(call_program)
        assert state.int_regs[6] == 10  # bump called 10 times

    def test_indirect_jump(self):
        state = _run("""
            movi r1, 4
            jr r1
            movi r2, 1
            movi r2, 2
            movi r3, 7
            halt
        """)
        assert state.int_regs[2] == 0  # both movi r2 skipped
        assert state.int_regs[3] == 7

    def test_halt_stops(self):
        trace = run_program(assemble("halt\nnop"))
        assert len(trace) == 1

    def test_max_instructions_truncates(self, loop_program):
        trace = run_program(loop_program, max_instructions=10)
        assert len(trace) == 10

    def test_pc_escape_raises(self):
        b = ProgramBuilder()
        b.movi(ireg(1), 999)
        b.jr(ireg(1))
        emulator = Emulator(b.build())
        with pytest.raises(EmulationError):
            emulator.run()


class TestTraceRecords:
    def test_sequence_numbers_monotonic(self, loop_trace):
        assert [e.seq for e in loop_trace] == list(range(len(loop_trace)))

    def test_memory_ops_carry_addresses(self, memory_program):
        trace = run_program(memory_program)
        for e in trace:
            if e.instr.is_memory:
                assert e.mem_addr is not None
            else:
                assert e.mem_addr is None

    def test_step_after_halt_returns_none(self):
        emulator = Emulator(assemble("halt"))
        assert emulator.step() is not None
        assert emulator.step() is None

    def test_snapshot_is_isolated(self):
        emulator = Emulator(assemble("movi r1, 5\nhalt"))
        snap = emulator.snapshot()
        emulator.run()
        assert snap.int_regs[1] == 0
        assert emulator.snapshot().int_regs[1] == 5

    def test_summary_fields(self, branchy_program):
        trace = run_program(branchy_program)
        summary = trace.summary()
        assert summary["instructions"] == len(trace)
        assert 0 < summary["branch_ratio"] < 1
        assert 0 <= summary["taken_ratio"] <= 1

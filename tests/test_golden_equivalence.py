"""Golden-model equivalence: the strongest end-to-end check on register
release.

The cycle simulator computes every correct-path result through *physical*
registers.  If any scheme frees a register too early, reallocation
corrupts a value and the final architectural state diverges from the
functional emulator.  Every scheme must match, on every workload shape,
under register starvation and heavy misprediction.  Every ``Core.run``
also ends with the same comparison against a replay of its own trace
(``Core.check_golden_state``), so detailed, tiered and sweep runs all
fail loudly on a broken scheme."""

import dataclasses
import re

import pytest

from repro.experiments import suite_speedup
from repro.frontend import DynamicInstruction, Trace, final_state, run_program
from repro.harness import CellSpec, SweepError, sweep
from repro.isa import AssemblyError, assemble
from repro.isa.semantics import MASK64
from repro.pipeline import Core, GoldenStateError, fast_test_config, golden_cove_config
from repro.rename.schemes import SCHEME_NAMES
from repro.tiered import run_tiered
from repro.workloads import PROFILES, build_trace, synthesize

from tests.conftest import ALL_SOURCES, BuggyAtr

SCHEMES = list(SCHEME_NAMES)


def _check(program, config, max_instructions=6000):
    golden = final_state(program, max_instructions=max_instructions)
    trace = run_program(program, max_instructions=max_instructions)
    core = Core(config, trace)
    core.run()
    state = core.architectural_state()
    # ArchState.diff canonicalizes both sides with the same zero-dropping
    # helper the simulator uses, then compares registers, flags, and
    # memory in *both* directions.
    mismatches = state.diff(golden, limit=32)
    assert not mismatches, "\n".join(mismatches)
    core.check_conservation()
    return core


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("source", sorted(ALL_SOURCES))
def test_fixture_programs(scheme, source):
    program = assemble(ALL_SOURCES[source], name=source)
    _check(program, fast_test_config(rf_size=30, scheme=scheme))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("rf_size", [26, 40, 64])
def test_register_pressure_sweep(scheme, rf_size, atomic_program):
    _check(atomic_program, fast_test_config(rf_size=rf_size, scheme=scheme))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("predictor", ["always_taken", "always_not_taken", "tage"])
def test_under_heavy_misprediction(scheme, predictor, branchy_program):
    _check(branchy_program,
           fast_test_config(rf_size=26, scheme=scheme, predictor=predictor))


@pytest.mark.parametrize("scheme", ["atr", "combined"])
@pytest.mark.parametrize("delay", [0, 1, 2])
def test_redefine_delay_sweep(scheme, delay, atomic_program):
    config = dataclasses.replace(
        fast_test_config(rf_size=26, scheme=scheme), redefine_delay=delay
    )
    _check(atomic_program, config)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_synthetic_profiles(scheme, profile):
    program = synthesize(PROFILES[profile], iterations=6)
    _check(program, fast_test_config(rf_size=34, scheme=scheme))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_narrow_counter(scheme, atomic_program):
    """A 2-bit consumer counter saturates constantly; must stay correct."""
    config = dataclasses.replace(
        fast_test_config(rf_size=26, scheme=scheme), counter_bits=2
    )
    _check(atomic_program, config)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_kernel_slice(scheme):
    """A real suite kernel, starved and mispredicting."""
    from repro.workloads import builder_for

    program = builder_for("531.deepsjeng_r")(iterations=12)
    _check(program, fast_test_config(rf_size=28, scheme=scheme))


def _wrong(result):
    """*result* off by one: each int +1 mod 2**64, each vector lane +1."""
    if result is None:
        return None
    if isinstance(result, tuple):
        return tuple((lane + 1) & MASK64 for lane in result)
    return (result + 1) & MASK64


def _with_wrong_results(trace):
    """A private copy of *trace* whose recorded results are all wrong.  A
    copy, because traces are shared through the trace cache and
    fast-forward replays their results."""
    entries = [DynamicInstruction(e.seq, e.pc, e.instr, e.next_pc, e.taken,
                                  e.mem_addr, _wrong(e.result))
               for e in trace.entries]
    return Trace(trace.program, entries, trace.name)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("source", sorted(ALL_SOURCES) + ["503.bwaves_r"])
def test_core_computes_its_own_values(scheme, source):
    """The core computes every result through physical registers, never
    from the trace.  On a copy whose recorded results are all wrong, the
    end-of-run check must report the mismatch, and the committed state
    must still equal an independent emulator's.  A core that took any
    value from the trace fails one of the two."""
    if source in ALL_SOURCES:
        program = assemble(ALL_SOURCES[source], name=source)
    else:
        from repro.workloads import builder_for

        program = builder_for(source)(iterations=1)
    golden = final_state(program)
    trace = _with_wrong_results(run_program(program))
    core = Core(fast_test_config(rf_size=40, scheme=scheme), trace)
    with pytest.raises(GoldenStateError):
        core.run()
    mismatches = core.architectural_state().diff(golden, limit=32)
    assert not mismatches, "\n".join(mismatches)


class TestEveryRunEndsWithTheGoldenCheck:
    """BuggyAtr frees the previous mapping at rename, ignoring consumers
    and value readiness.  On x264 a reallocation then corrupts live
    values without tripping any scheme-internal assertion, so only the
    end-of-run golden check can stop the run from publishing numbers."""

    def test_detailed_run_raises(self):
        core = Core(golden_cove_config(rf_size=64, scheme="atr"),
                    build_trace("525.x264_r", 5000),
                    scheme=BuggyAtr(debug_checks=False))
        with pytest.raises(GoldenStateError) as excinfo:
            core.run()
        message = str(excinfo.value)
        assert message.startswith("525.x264_r: committed state differs")
        assert re.search(r"^  r\d+: 0x[0-9a-f]+ != 0x[0-9a-f]+$", message, re.M)

    def test_tiered_run_raises(self, buggy_atr_scheme):
        config = golden_cove_config(rf_size=64, scheme=buggy_atr_scheme)
        with pytest.raises(GoldenStateError, match=r"^525\.x264_r@\d+: "):
            run_tiered(config, build_trace("525.x264_r", 20_000), seed=1)

    def test_sweep_cell_fails(self, buggy_atr_scheme):
        spec = CellSpec("525.x264_r", 64, buggy_atr_scheme, 5000)
        report = sweep([spec], jobs=1, store=None)
        assert spec not in report.results
        assert [failure.spec for failure in report.failures] == [spec]

    def test_figure_layer_failure_is_diagnosed(self, buggy_atr_scheme):
        """A figure's cells go through the sweep: the failed cell is
        named with the plain run's golden mismatch and the sanitizer
        re-run's diagnosis."""
        with pytest.raises(SweepError) as excinfo:
            suite_speedup(["525.x264_r"], 64, buggy_atr_scheme,
                          instructions=5000)
        message = str(excinfo.value)
        assert "525.x264_r/rf64/buggy_atr: GoldenStateError: " in message
        assert "\nretry: InvariantViolation" in message


@pytest.mark.parametrize("value", ["-1", "0x1FFFFFFFFFFFFFFFF"])
def test_data_word_outside_64_bits_is_an_assembly_error(value):
    """A register holds 0..2**64-1, so a data word outside that range
    would load differently into the emulator, which kept registers in
    range, and the cycle core, which loads the raw word: the golden
    comparison read ``r2: -0x1 != 0xffffffffffffffff``.  The builder
    rejects such words instead."""
    source = f".word 512 {value}\nmovi r1, 512\nld r2, r1, 0\nhalt"
    with pytest.raises(AssemblyError, match="line 1"):
        assemble(source)

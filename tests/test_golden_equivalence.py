"""Golden-model equivalence: the strongest end-to-end check on register
release.

The cycle simulator computes every correct-path result through *physical*
registers.  If any scheme frees a register too early, reallocation
corrupts a value and the final architectural state diverges from the
functional emulator.  Every scheme must match, on every workload shape,
under register starvation and heavy misprediction."""

import dataclasses

import pytest

from repro.frontend import DynamicInstruction, Trace, final_state, run_program
from repro.isa import AssemblyError, assemble
from repro.pipeline import Core, fast_test_config
from repro.rename.schemes import SCHEME_NAMES
from repro.workloads import PROFILES, synthesize

from tests.conftest import ALL_SOURCES

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


class _Unreadable:
    """Stands in for a recorded result: any use of it as a value fails."""

    def _fail(self, *args):
        raise AssertionError("the cycle core used a trace entry's recorded result")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _fail
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _fail
    __lshift__ = __rlshift__ = __rshift__ = __rrshift__ = _fail
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = __neg__ = _fail
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _fail
    __bool__ = __index__ = __int__ = __iter__ = __getitem__ = __len__ = _fail
    __hash__ = None


def _without_results(trace):
    """A private copy of *trace* whose recorded results fail any use.  A
    copy, because traces are shared through the trace cache and
    fast-forward replays their results."""
    unreadable = _Unreadable()
    entries = [DynamicInstruction(e.seq, e.pc, e.instr, e.next_pc, e.taken,
                                  e.mem_addr, unreadable)
               for e in trace.entries]
    return Trace(trace.program, entries, trace.name)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("source", sorted(ALL_SOURCES) + ["503.bwaves_r"])
def test_core_computes_its_own_values(scheme, source):
    """Golden equivalence holds when the core cannot read the values the
    emulator recorded: it computes every result through physical
    registers, so the comparison checks register release."""
    if source in ALL_SOURCES:
        program = assemble(ALL_SOURCES[source], name=source)
    else:
        from repro.workloads import builder_for

        program = builder_for(source)(iterations=1)
    golden = final_state(program)
    trace = _without_results(run_program(program))
    core = Core(fast_test_config(rf_size=40, scheme=scheme), trace)
    core.run()
    mismatches = core.architectural_state().diff(golden, limit=32)
    assert not mismatches, "\n".join(mismatches)


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

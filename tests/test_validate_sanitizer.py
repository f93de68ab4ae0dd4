"""Online invariant sanitizer: silent on correct schemes, loud on broken ones.

The acceptance case is the buggy-scheme fixture: an ATR variant that skips
the consumer-count and value-ready release guards must be caught by the
sanitizer with a structured use-after-release violation naming the
offending physical register and cycle — not by a downstream crash or a
corrupted final state.
"""

import dataclasses

import pytest

from repro.frontend import final_state, run_program
from repro.isa import assemble
from repro.pipeline import (
    Core,
    DeadlockError,
    InterruptController,
    fast_test_config,
)
from repro.rename.schemes import SCHEME_NAMES
from repro.validate import InvariantViolation, format_snapshot, pipeline_snapshot

from tests.conftest import ALL_SOURCES, BuggyAtr

SCHEMES = list(SCHEME_NAMES)


def _sanitized(scheme, rf_size=28, **kwargs):
    config = fast_test_config(rf_size=rf_size, scheme=scheme, **kwargs)
    return dataclasses.replace(config, check_invariants=True)


def _run_checked(program, config, max_instructions=6000):
    golden = final_state(program, max_instructions=max_instructions)
    trace = run_program(program, max_instructions=max_instructions)
    core = Core(config, trace)
    core.run()
    assert not core.architectural_state().diff(golden)
    return core


class TestCleanRuns:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("source", ["branchy", "atomic"])
    def test_all_schemes_run_clean_under_sanitizer(self, scheme, source):
        program = assemble(ALL_SOURCES[source], name=source)
        core = _run_checked(program, _sanitized(scheme, rf_size=26))
        assert core.checker is not None
        assert core.checker.checked_events > 0

    def test_checker_absent_when_disabled(self, loop_trace):
        core = Core(fast_test_config(), loop_trace)
        assert core.checker is None

    def test_sanitizer_is_pure_observation(self, branchy_program):
        """Checking must not perturb timing: identical stats either way."""
        trace = run_program(branchy_program)
        plain = Core(fast_test_config(rf_size=26, scheme="atr"), trace)
        checked = Core(_sanitized("atr", rf_size=26), trace)
        assert plain.run().to_dict() == checked.run().to_dict()


# A register redefined while a long-latency mul still gates its consumer:
# correct ATR must wait for the consumer to issue; the buggy scheme
# (tests.conftest.BuggyAtr) frees the register immediately at redefinition.
BUGGY_SRC = """
    movi r6, 7
    movi r7, 9
    movi r1, 5
    mul r5, r6, r7
    add r2, r5, r1
    movi r1, 9
    halt
"""


class TestBrokenSchemeCaught:
    def test_use_after_release_fires_with_diagnostics(self):
        program = assemble(BUGGY_SRC, name="buggy")
        trace = run_program(program)
        config = dataclasses.replace(_sanitized("atr"), lat_int_mul=20)
        core = Core(config, trace, scheme=BuggyAtr(debug_checks=False))
        with pytest.raises(InvariantViolation) as excinfo:
            core.run()
        violation = excinfo.value
        assert violation.kind == "use-after-release"
        assert violation.ptag is not None
        assert violation.cycle > 0
        assert violation.seq >= 0
        assert violation.snapshot is not None
        text = str(violation)
        assert "use-after-release" in text
        assert f"p{violation.ptag}" in text
        assert f"cycle {violation.cycle}" in text
        assert "pipeline snapshot" in text  # embedded diagnostics

    def test_without_sanitizer_the_bug_reaches_final_state(self):
        """Baseline for the test above: nothing reallocates the freed
        register here, so the run completes and even the end-of-run golden
        check sees no corruption.  Only the online checker sees the use
        after release itself."""
        program = assemble(BUGGY_SRC, name="buggy")
        trace = run_program(program)
        config = dataclasses.replace(
            fast_test_config(rf_size=28, scheme="atr"), lat_int_mul=20)
        core = Core(config, trace, scheme=BuggyAtr(debug_checks=False))
        core.run()  # no online check -> no InvariantViolation


class TestDeadlockDiagnostics:
    def test_deadlock_error_carries_context(self, branchy_program):
        trace = run_program(branchy_program)
        # A 500-cycle multiply pins the ROB head mid-flight, so the error
        # must name the stuck instruction.
        config = dataclasses.replace(
            fast_test_config(rf_size=26, scheme="atr"), lat_int_mul=500)
        core = Core(config, trace)
        with pytest.raises(DeadlockError) as excinfo:
            core.run(max_cycles=100)
        err = excinfo.value
        assert err.cycle == 100
        assert err.committed >= 0
        assert err.total == len(trace)
        assert err.head_seq is not None
        assert err.head_opcode == "MUL"
        message = str(err)
        assert "at cycle 100" in message
        assert f"{err.committed}/{err.total} committed" in message
        assert f"#{err.head_seq} MUL" in message
        assert "pipeline snapshot" in message  # embedded snapshot
        assert err.snapshot is not None

    def test_snapshot_formats_without_checker(self, loop_trace):
        """pipeline_snapshot works on any core, sanitizer attached or not."""
        core = Core(fast_test_config(), loop_trace)
        core.run()
        snap = pipeline_snapshot(core)
        assert "recent_events" not in snap
        rendered = format_snapshot(snap)
        assert "pipeline snapshot" in rendered
        assert "freelist" in rendered


class TestInterruptConservation:
    @pytest.mark.parametrize("scheme", ["atr", "combined"])
    def test_conservation_after_interrupt_flush_then_drain(
            self, scheme, branchy_program):
        """An interrupt_flush squashes the speculative tail; a later drain
        empties the ROB.  The sanitizer's ROB-empty conservation check
        runs at both points and the final state must still be golden."""
        golden = final_state(branchy_program)
        trace = run_program(branchy_program)
        core = Core(_sanitized(scheme, rf_size=26), trace)
        flush_ctl = InterruptController(core, policy="flush", service_cycles=25)
        flush_ctl.schedule(at_cycle=60)
        flush_ctl.schedule(at_cycle=220)
        core.run()
        assert flush_ctl.stats.serviced == 2
        assert not core.architectural_state().diff(golden)
        core.check_conservation()

    def test_conservation_after_drain_policy(self, branchy_program):
        golden = final_state(branchy_program)
        trace = run_program(branchy_program)
        core = Core(_sanitized("atr", rf_size=26), trace)
        ctl = InterruptController(core, policy="drain", service_cycles=25)
        ctl.schedule(at_cycle=80)
        core.run()
        assert ctl.stats.serviced == 1
        assert not core.architectural_state().diff(golden)
        core.check_conservation()

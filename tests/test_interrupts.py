"""Interrupt handling (paper section 4.1): drain vs. precommit-boundary flush.

The critical property of the flush policy: re-executing the squashed
window after service must still produce the golden architectural state,
even with ATR's early releases in flight — that is exactly what waiting
while an ATR claim crosses the precommit boundary protects.
"""

import dataclasses

import pytest

from repro.frontend import final_state, run_program
from repro.isa import assemble
from repro.pipeline import Core, InterruptController, fast_test_config, golden_cove_config
from repro.rename.schemes import SCHEME_NAMES
from repro.workloads import build_trace

from tests.conftest import ATOMIC_SRC, BRANCHY_SRC


def _run_with_interrupts(src, scheme, policy, at_cycles, rf_size=30,
                         predictor="tage"):
    program = assemble(src, name="irq")
    golden = final_state(program)
    trace = run_program(program)
    config = fast_test_config(rf_size=rf_size, scheme=scheme, predictor=predictor)
    core = Core(config, trace)
    controller = InterruptController(core, policy=policy, service_cycles=40)
    for cycle in at_cycles:
        controller.schedule(cycle)
    stats = core.run()
    state = core.architectural_state()
    assert state.int_regs == golden.int_regs
    assert state.flags == golden.flags
    core.check_conservation()
    return core, controller, stats


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@pytest.mark.parametrize("policy,at_cycles,squashes", [
    pytest.param("drain", [40, 120], False, id="drain"),
    pytest.param("flush", [40, 120], False, id="flush"),
    # The two above squash nothing; this one interrupt squashes 5 to 7
    # instructions, depending on the scheme.
    pytest.param("flush", [300], True, id="flush-squash"),
])
def test_interrupts_preserve_golden_state(scheme, policy, at_cycles, squashes):
    _core, controller, _stats = _run_with_interrupts(
        ATOMIC_SRC, scheme, policy, at_cycles=at_cycles
    )
    assert controller.stats.serviced == len(at_cycles)
    if squashes:
        assert controller.stats.flushed_instructions > 0


@pytest.mark.parametrize("scheme", ["atr", "combined"])
def test_flush_policy_under_mispredictions(scheme):
    _core, controller, stats = _run_with_interrupts(
        BRANCHY_SRC, scheme, "flush", at_cycles=[60, 200, 400],
        predictor="always_taken",
    )
    assert controller.stats.serviced == 3


def test_interrupt_costs_cycles():
    _, _, without = _run_with_interrupts(ATOMIC_SRC, "atr", "drain", [])
    _, _, with_irq = _run_with_interrupts(ATOMIC_SRC, "atr", "drain", [50])
    assert with_irq.cycles > without.cycles


def test_flush_policy_squashes_window():
    core, controller, _ = _run_with_interrupts(
        ATOMIC_SRC, "atr", "flush", at_cycles=[300]
    )
    assert controller.stats.flushed_instructions > 0
    assert controller.stats.serviced == 1


def test_drain_policy_never_flushes():
    _core, controller, _ = _run_with_interrupts(
        ATOMIC_SRC, "combined", "drain", at_cycles=[60]
    )
    assert controller.stats.flushed_instructions == 0


@pytest.mark.parametrize("scheme", ["atr", "combined"])
def test_flush_policy_squashes_under_atr(scheme):
    """Flush-policy interrupts squash the window past the precommit
    pointer under the ATR schemes too: the controller waits only while a
    claim crosses that boundary, not until no committed register is
    claimable any more, which on mcf is never before the ROB drains."""
    config = dataclasses.replace(
        golden_cove_config(rf_size=64, scheme=scheme), check_invariants=True)
    core = Core(config, build_trace("505.mcf_r", 3000))
    controller = InterruptController(core, policy="flush", service_cycles=60)
    for cycle in (6_000, 13_000, 20_000, 27_000):
        controller.schedule(cycle)
    core.run()
    assert controller.stats.serviced == 4
    assert controller.stats.flushed_instructions > 0


def test_unknown_policy_rejected(loop_trace):
    core = Core(fast_test_config(), loop_trace)
    with pytest.raises(ValueError):
        InterruptController(core, policy="vulcan")


def test_interrupt_wait_accounted():
    _, controller, _ = _run_with_interrupts(ATOMIC_SRC, "combined", "flush", [80])
    assert controller.stats.wait_cycles >= 0
    assert controller.stats.service_cycles_total == 40

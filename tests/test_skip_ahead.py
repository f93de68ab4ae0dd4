"""Skip-ahead soundness: jumping the clock must be invisible in the stats.

An unprobed ``Core.run`` advances the cycle counter over provably
quiescent windows instead of spinning through them.  The contract is
*bit-identity*: every ``SimStats`` field (cycles included), the scheme's
accounting, the rename unit's stall counter, and the final architectural
state must equal the spin loop's, on every workload shape — including
chaos-jittered machines whose latencies and flush patterns are nothing
like the golden-cove default.  The spin-loop reference is the same core
with ``Core._skip_target`` patched to find no skip (the ``spin`` fixture).
"""

from dataclasses import replace

import pytest

from repro.pipeline import Core, DeadlockError, fast_test_config
from repro.validate.chaos import ChaosCore, ChaosSpec, _chaos_rng, chaos_config
from repro.workloads import ALL_BENCHMARKS, build_trace


@pytest.fixture
def spin(monkeypatch):
    """Run a core as the spin loop: every quiescent cycle stepped, none
    skipped.  Patched on the class, so ``ChaosCore`` inherits it."""
    def run(core, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(Core, "_skip_target",
                          lambda self, bound: self.state.cycle)
            return core.run(**kwargs)

    return run


def _fingerprint(core, stats):
    return (
        stats.to_dict(),
        core.scheme.stats.to_dict(),
        core.architectural_state(),
    )


def assert_skip_identical(config, trace, spin):
    spin_core = Core(config, trace)
    spin_stats = spin(spin_core)
    skip_core = Core(config, trace)
    skip_stats = skip_core.run()
    assert _fingerprint(skip_core, skip_stats) == \
        _fingerprint(spin_core, spin_stats)


def test_unprobed_core_skips_most_cycles():
    """An unprobed core steps through only a fraction of its cycles.

    The identity tests pass on a pure spin loop too, so without this a
    ``_skip_target`` that stopped skipping would go unnoticed."""
    core = Core(fast_test_config(rf_size=40, scheme="atr"),
                build_trace("505.mcf_r", 1500))
    steps = 0
    step = core.step

    def counting_step():
        nonlocal steps
        steps += 1
        step()

    core.step = counting_step
    stats = core.run()
    assert steps < 0.25 * stats.cycles


@pytest.mark.parametrize("kernel", sorted(ALL_BENCHMARKS))
def test_skip_matches_spin_kernel_suite(kernel, spin):
    trace = build_trace(kernel, 1500)
    assert_skip_identical(fast_test_config(rf_size=40, scheme="atr"), trace,
                          spin)


@pytest.mark.parametrize("scheme", ["baseline", "nonspec_er", "combined"])
def test_skip_matches_spin_schemes(scheme, spin):
    trace = build_trace("505.mcf_r", 2000)
    assert_skip_identical(fast_test_config(rf_size=32, scheme=scheme), trace,
                          spin)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kernel", ["505.mcf_r", "503.bwaves_r"])
def test_skip_matches_spin_chaos_machines(kernel, seed, spin):
    """Jittered machine shapes *and* jittered timing faults.

    Chaos faults draw from the seeded RNG per instruction event, not per
    cycle, so the event sequence is clock-jump-invariant and identity
    must still hold.  (The sanitizer is detached: probes force the spin
    loop by design, which would make this test vacuous.)
    """
    spec = ChaosSpec(benchmark=kernel, scheme="atr", rf_size=40,
                     instructions=1500, seed=seed)
    config = replace(chaos_config(spec, _chaos_rng(spec)),
                     check_invariants=False)
    trace = build_trace(kernel, 1500)

    results = []
    for run in (spin, ChaosCore.run):
        core = ChaosCore(config, trace, rng=_chaos_rng(spec), flip_prob=0.02,
                         exec_jitter=3)
        stats = run(core)
        results.append(_fingerprint(core, stats))
    assert results[0] == results[1]


def test_probes_force_spin_loop(spin):
    """An attached probe disables skip-ahead (observers see every cycle),
    and the probed run still matches the unprobed spin loop."""
    from repro.pipeline import RecordingProbe

    trace = build_trace("505.mcf_r", 1200)
    config = fast_test_config(rf_size=40, scheme="atr")

    spin_stats = spin(Core(config, trace))

    core = Core(config, trace)
    probe = core.add_probe(RecordingProbe())
    probed_stats = core.run()
    assert probed_stats.to_dict() == spin_stats.to_dict()
    assert probe.events  # the observer actually saw the run


def test_deadlock_raises_at_the_same_cycle(spin):
    """The skip bound is clamped so max-cycle exhaustion fires at exactly
    the cycle the spin loop would report."""
    trace = build_trace("505.mcf_r", 1500)
    config = fast_test_config(rf_size=40, scheme="atr")
    cycles = []
    for run in (spin, Core.run):
        core = Core(config, trace)
        with pytest.raises(DeadlockError):
            run(core, max_cycles=60)
        cycles.append(core.state.cycle)
    assert cycles[0] == cycles[1]

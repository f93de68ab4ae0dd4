"""Seeded fault injection: adversarial *timing* perturbation.

ATR's safety argument is that early release changes **when** registers
recycle, never **what** the program computes — under any flush,
interrupt, or wrong-path schedule.  The chaos engine attacks exactly
that claim: it derives, from one integer seed, a deterministic set of
timing-only faults —

* **configuration jitter**: execution/cache latencies, port counts,
  queue sizes, and frontend depth drawn from adversarial ranges;
* **free-list pressure**: the register file shrunk toward the minimum
  that can still make progress, maximizing recycling;
* **forced mispredict overrides**: correctly predicted conditional
  branches randomly flipped into mispredictions, driving wrong-path
  fetch and flush walks through rare interleavings;
* **forced interrupts**: drain- or flush-policy interrupts scheduled at
  random cycles, exercising the precommit-boundary squash;
* **execution jitter**: per-instruction latency noise reordering
  completions;

— then runs the cycle core with the online sanitizer attached.  Like
every run, it ends with the core's conservation and golden-state checks
(:meth:`~repro.pipeline.Core.check_golden_state`).  A timing fault that
changes architectural results (or trips the sanitizer, or breaks
free-list conservation) is a correctness bug; the run's
:class:`~repro.harness.CellResult` comes back with ``error`` holding the
violation and its pipeline snapshot.

Everything is derived from ``ChaosSpec`` via ``random.Random`` seeded
with a stable string, so a failing cell replays bit-identically from its
spec alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..branch import Prediction
from ..harness.jobs import CellResult
from ..harness.spec import register_spec_type
from ..memory import HierarchyConfig
from ..pipeline import Core, CoreConfig, DeadlockError, InterruptController, ROBEntry
from ..pipeline.stages import ExecuteUnit, FetchStage
from ..rename.errors import RenameError
from ..workloads import build_trace
from .sanitizer import InvariantViolation

#: Fault magnitudes per campaign intensity.
INTENSITIES = {
    "low": {"flip_prob": 0.005, "exec_jitter": 1, "max_interrupts": 1,
            "rf_pressure": 4},
    "medium": {"flip_prob": 0.02, "exec_jitter": 3, "max_interrupts": 2,
               "rf_pressure": 12},
    "high": {"flip_prob": 0.06, "exec_jitter": 6, "max_interrupts": 4,
             "rf_pressure": 24},
}

#: Smallest register file the jittered fast machine can run with
#: (17 int SRT slots + rename-width reserve + headroom).
_MIN_RF = 24


@dataclass(frozen=True)
class ChaosSpec:
    """One seeded chaos cell: benchmark x scheme x rf_size x seed."""

    benchmark: str
    scheme: str
    rf_size: int
    instructions: int
    seed: int
    intensity: str = "medium"
    redefine_delay: int = 0

    kind = "chaos"

    def describe(self) -> str:
        delay = f" d{self.redefine_delay}" if self.redefine_delay else ""
        return (f"{self.benchmark}/rf{self.rf_size}/{self.scheme}"
                f"/chaos#{self.seed}({self.intensity}){delay}")


register_spec_type(ChaosSpec)


def _chaos_rng(spec: ChaosSpec) -> random.Random:
    """Deterministic RNG: ``random.Random`` seeds strings via SHA-512,
    independent of ``PYTHONHASHSEED`` and the host process."""
    return random.Random(
        f"{spec.benchmark}|{spec.scheme}|rf{spec.rf_size}"
        f"|n{spec.instructions}|s{spec.seed}|{spec.intensity}"
        f"|d{spec.redefine_delay}")


def chaos_config(spec: ChaosSpec, rng: random.Random) -> CoreConfig:
    """A jittered small machine for *spec*; timing knobs only."""
    knobs = INTENSITIES[spec.intensity]
    rf_size = max(_MIN_RF, spec.rf_size - rng.randint(0, knobs["rf_pressure"]))
    memory = HierarchyConfig(
        l1d_latency=rng.randint(2, 5),
        l1i_latency=rng.randint(2, 4),
        l2_latency=rng.randint(8, 20),
        llc_latency=rng.randint(25, 60),
        dram_latency=rng.randint(120, 320),
        mshr_entries=rng.randint(8, 48),
        enable_prefetch=rng.random() < 0.5,
    )
    config = CoreConfig(
        fetch_width=rng.randint(2, 6),
        rename_width=4,
        retire_width=rng.randint(2, 8),
        precommit_width=rng.randint(4, 16),
        rob_size=rng.randint(32, 96),
        rs_size=rng.randint(16, 48),
        lq_size=rng.randint(8, 24),
        sq_size=rng.randint(8, 24),
        alu_ports=rng.randint(1, 4),
        load_ports=rng.randint(1, 3),
        store_ports=rng.randint(1, 2),
        lat_int_mul=rng.randint(2, 6),
        lat_int_div=rng.randint(6, 30),
        lat_vec_alu=rng.randint(1, 4),
        lat_vec_mul=rng.randint(2, 8),
        lat_vec_div=rng.randint(8, 32),
        frontend_depth=rng.randint(2, 6),
        checkpoints=rng.randint(2, 8),
        redirect_penalty=rng.randint(1, 6),
        scheme=spec.scheme,
        redefine_delay=spec.redefine_delay,
        memory=memory,
        check_invariants=True,
    ).with_rf_size(rf_size)
    config.validate()
    return config


class ChaosExecuteUnit(ExecuteUnit):
    """Execute unit adding seeded per-instruction latency slack."""

    def __init__(self, state, rng: random.Random, exec_jitter: int):
        super().__init__(state)
        self._rng = rng
        self._exec_jitter = exec_jitter

    def dispatch(self, entry, cycle: int) -> int:
        latency = super().dispatch(entry, cycle)
        if self._exec_jitter:
            latency += self._rng.randint(0, self._exec_jitter)
        return latency


class ChaosFetchStage(FetchStage):
    """Fetch stage that randomly overrides correct branch predictions."""

    def __init__(self, state, rng: random.Random, flip_prob: float):
        super().__init__(state)
        self._rng = rng
        self._flip_prob = flip_prob
        self.forced_mispredicts = 0

    def predict(self, entry: ROBEntry):
        prediction, mispredicted, redirect = super().predict(entry)
        if (
            prediction is not None
            and not mispredicted
            and not entry.wrong_path
            and entry.instr.is_conditional_branch
            and entry.instr.target is not None
            and self._rng.random() < self._flip_prob
        ):
            # Override a correct prediction with the opposite direction:
            # a pure timing fault that forces wrong-path fetch and a
            # flush at resolution.
            flipped = Prediction(
                taken=not prediction.taken,
                target=entry.instr.target if not prediction.taken else None,
                confident=False,
            )
            self.forced_mispredicts += 1
            return flipped, True, flipped.taken or entry.taken
        return prediction, mispredicted, redirect


class ChaosCore(Core):
    """A :class:`Core` with seeded timing-fault injection.

    Perturbations are strictly timing-side, injected through the stage
    interface (no monkey-patching): :class:`ChaosExecuteUnit` adds
    random latency slack and :class:`ChaosFetchStage` overrides correctly
    predicted conditional branches into mispredictions.  Architectural
    results must be unaffected — that is the property under test.
    """

    def __init__(self, config: CoreConfig, trace, rng: random.Random,
                 flip_prob: float = 0.0, exec_jitter: int = 0):
        # Stage factories run inside super().__init__; params come first.
        self._rng = rng
        self._flip_prob = flip_prob
        self._exec_jitter = exec_jitter
        super().__init__(config, trace)

    def _make_execute_unit(self, state) -> ExecuteUnit:
        return ChaosExecuteUnit(state, self._rng, self._exec_jitter)

    def _make_fetch_stage(self, state) -> FetchStage:
        return ChaosFetchStage(state, self._rng, self._flip_prob)

    @property
    def forced_mispredicts(self) -> int:
        return self.stages.fetch.forced_mispredicts


def _schedule_interrupts(core: Core, rng: random.Random,
                         max_interrupts: int,
                         horizon: int) -> Optional[Tuple[str, List[int]]]:
    count = rng.randint(0, max_interrupts)
    if count == 0:
        return None
    policy = rng.choice(("drain", "flush"))
    controller = InterruptController(
        core, policy=policy, service_cycles=rng.randint(20, 80))
    cycles = sorted(rng.randint(50, max(51, horizon)) for _ in range(count))
    for cycle in cycles:
        controller.schedule(cycle)
    return policy, cycles


def run_chaos_cell(spec: ChaosSpec) -> CellResult:
    """Run one chaos cell; violations land in ``CellResult.error``."""
    if spec.intensity not in INTENSITIES:
        raise ValueError(f"unknown intensity {spec.intensity!r}; "
                         f"expected one of {sorted(INTENSITIES)}")
    knobs = INTENSITIES[spec.intensity]
    rng = _chaos_rng(spec)
    trace = build_trace(spec.benchmark, spec.instructions)

    config = chaos_config(spec, rng)
    core = ChaosCore(config, trace, rng,
                     flip_prob=knobs["flip_prob"],
                     exec_jitter=knobs["exec_jitter"])
    injected = _schedule_interrupts(
        core, rng, knobs["max_interrupts"], horizon=spec.instructions * 3)
    perturbation = (
        f"rf={config.int_rf_size} flip={knobs['flip_prob']} "
        f"jitter={knobs['exec_jitter']} interrupts="
        f"{injected if injected else 'none'}")

    # ATR-claiming schemes additionally get the static cross-checks:
    # every out-of-order release must match a statically-proven atomic
    # window, and total ATR activity must stay within the static
    # opportunity bound — under whatever flush/interrupt schedule the
    # chaos faults produce.
    oracle = None
    bound_probe = None
    if spec.scheme in ("atr", "combined"):
        from ..staticcheck import AtrSoundnessProbe, StaticBoundProbe
        oracle = AtrSoundnessProbe(trace.program,
                                   strict_unclaimed=(spec.scheme == "atr"))
        core.add_probe(oracle)
        bound_probe = StaticBoundProbe(trace.program)
        core.add_probe(bound_probe)

    error = None
    try:
        core.run()
    # AssertionError covers the run's closing GoldenStateError.
    except (InvariantViolation, DeadlockError, RenameError,
            AssertionError) as exc:
        error = f"{type(exc).__name__} under {perturbation}:\n{exc}"

    if oracle is not None and oracle.violations:
        detail = "\n".join(f"  {violation}" for violation in oracle.violations)
        report = (f"static atomic-region oracle: {len(oracle.violations)} "
                  f"unsound release(s) under {perturbation}:\n{detail}")
        error = f"{error}\n{report}" if error else report

    if bound_probe is not None and bound_probe.violations:
        detail = "\n".join(f"  {violation}"
                           for violation in bound_probe.violations)
        report = (f"static ATR opportunity bound: {bound_probe.summary()} "
                  f"under {perturbation}:\n{detail}")
        error = f"{error}\n{report}" if error else report

    stats = core.stats
    stats.cycles = core.cycle
    return CellResult(
        benchmark=spec.benchmark,
        scheme=spec.scheme,
        rf_size=spec.rf_size,
        instructions=spec.instructions,
        stats=stats,
        scheme_stats=core.scheme.stats,
        error=error,
    )


def execute_chaos_spec(spec) -> CellResult:
    """Scheduler executor for chaos campaigns."""
    if not isinstance(spec, ChaosSpec):
        raise TypeError(f"expected ChaosSpec, got {type(spec).__name__}")
    return run_chaos_cell(spec)

"""Job execution: turn a spec into a result, in any process.

This module is the *only* place experiment work actually happens; the
scheduler runs :func:`execute_spec` either inline (serial mode) or inside
a worker process.  It deliberately imports from the simulator packages
(`pipeline`, `workloads`, `analysis`) and never from `experiments`, so
``experiments`` can build on the harness without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..analysis import RegionReport, classify_regions
from ..pipeline import Core, CoreConfig, RegisterEventLog, SimStats, golden_cove_config
from ..rename.schemes import SchemeStats
from ..workloads import build_trace, is_fp
from .spec import CellSpec, RegionSpec, Spec


@dataclass
class CellResult:
    """One simulated (benchmark, configuration) cell."""

    benchmark: str
    scheme: str
    rf_size: int
    instructions: int
    stats: SimStats
    scheme_stats: SchemeStats
    event_records: Optional[list] = None
    #: Structured validation failure (invariant violation, golden-model
    #: divergence, …) rendered as text — ``None`` for a clean run.
    error: Optional[str] = None
    #: Window/warmup description of a tiered run (``None`` for detailed
    #: runs); see :func:`repro.tiered.run_tiered`.
    tier_info: Optional[dict] = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def is_fp(self) -> bool:
        return is_fp(self.benchmark)


def simulate_cell(spec: CellSpec, config: Optional[CoreConfig] = None,
                  check_invariants: bool = False) -> CellResult:
    """Run one timing simulation (uncached; see the sweep layer for caching)."""
    if config is None:
        config = golden_cove_config(
            rf_size=spec.rf_size,
            scheme=spec.scheme,
            redefine_delay=spec.redefine_delay,
        )
    if check_invariants:
        config = replace(config, check_invariants=True)
    trace = build_trace(spec.benchmark, spec.instructions)
    tier = spec.tier
    event_records = tier_info = None
    if tier.mode == "tiered":
        if spec.record_register_events:
            raise ValueError(
                "record_register_events requires detailed mode: the event "
                "log is a per-committed-register measurement, not a rate")
        from ..tiered import run_tiered  # lazy: tiered layers on pipeline
        stats, scheme_stats, tier_info = run_tiered(
            config, trace, interval=tier.interval,
            max_windows=tier.max_windows, seed=tier.seed)
    else:
        core = Core(config, trace)
        if spec.record_register_events:
            # The log fills this list as the run commits.
            event_records = core.add_probe(RegisterEventLog()).records
        stats = core.run()
        scheme_stats = core.scheme.stats
    return CellResult(
        benchmark=spec.benchmark,
        scheme=spec.scheme,
        rf_size=spec.rf_size,
        instructions=spec.instructions,
        stats=stats,
        scheme_stats=scheme_stats,
        event_records=event_records,
        tier_info=tier_info,
    )


def analyze_regions(spec: RegionSpec) -> RegionReport:
    """Trace-level region classification (no simulation needed)."""
    return classify_regions(build_trace(spec.benchmark, spec.instructions))


def execute_spec(spec: Spec):
    """Dispatch a spec to its executor; the scheduler's default worker."""
    if isinstance(spec, CellSpec):
        return simulate_cell(spec)
    if isinstance(spec, RegionSpec):
        return analyze_regions(spec)
    raise TypeError(f"unknown spec type {type(spec).__name__}")


def execute_spec_diagnose(spec: Spec):
    """Like :func:`execute_spec`, but with the invariant sanitizer on.

    The scheduler re-runs a failed cell through this executor so a crash
    that reproduces surfaces as a structured
    :class:`~repro.validate.InvariantViolation` with a pipeline snapshot
    instead of a bare traceback.  Invariant checking is observation-only,
    so a cell that *succeeds* under diagnosis returns statistics
    identical to a plain run.
    """
    if isinstance(spec, CellSpec):
        return simulate_cell(spec, check_invariants=True)
    return execute_spec(spec)

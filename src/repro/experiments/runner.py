"""Experiment execution: one simulation = one (benchmark, config) cell.

Every figure lists the cells it needs and resolves them in one
:func:`resolve_specs` call: a :func:`repro.harness.sweep` (dedup, the
persistent store, cold cells sharded over worker processes, retry and a
sanitizer re-run of a failed cell) behind an in-process memo, which
gives overlapping figures (Figure 10's 64-register column reuses Figure
11's) identity-cached results.  :func:`run_cell` and
:func:`region_report` are one-spec calls of it.

Scale is each call's ``instructions`` argument (``repro figure -n``);
without one, a cell simulates :func:`default_instructions` — 5000 dynamic
instructions per benchmark, enough for steady-state register-pressure
behaviour of these loop-dominated kernels.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from ..analysis import RegionReport
from ..harness import (
    DETAILED,
    CellResult,
    CellSpec,
    RegionSpec,
    Spec,
    TierPolicy,
    sweep,
)
from ..workloads import SPEC_FP, SPEC_INT

__all__ = [
    "CellResult", "CellSpec", "RegionSpec", "TierPolicy", "DETAILED",
    "resolve_specs", "run_cell", "region_report", "clear_result_cache",
    "geomean", "mean", "speedup", "suite_speedup",
    "default_instructions", "default_int_suite", "default_fp_suite",
]


def default_instructions() -> int:
    return 5000


def default_int_suite() -> Tuple[str, ...]:
    return SPEC_INT


def default_fp_suite() -> Tuple[str, ...]:
    return SPEC_FP


_results: Dict[Spec, object] = {}


def resolve_specs(specs: Mapping[Hashable, Spec],
                  jobs: Optional[int] = None) -> Dict[Hashable, object]:
    """Resolve a key -> spec map to key -> result, in one sweep.

    Specs missing from the in-process memo go to
    :func:`repro.harness.sweep` with *jobs* workers (``None``: every
    core) and join the memo.  Raises :class:`repro.harness.SweepError`
    if any cell failed.
    """
    cold = [spec for spec in specs.values() if spec not in _results]
    if cold:
        _results.update(sweep(cold, jobs=jobs).require_complete().results)
    return {key: _results[spec] for key, spec in specs.items()}


def cell_spec(
    benchmark: str,
    rf_size: int,
    scheme: str,
    instructions: Optional[int] = None,
    redefine_delay: int = 0,
    record_register_events: bool = False,
    tier: Optional[TierPolicy] = None,
) -> CellSpec:
    """Build the canonical spec, defaulting the instruction count."""
    return CellSpec(
        benchmark=benchmark,
        rf_size=rf_size,
        scheme=scheme,
        instructions=instructions or default_instructions(),
        redefine_delay=redefine_delay,
        record_register_events=record_register_events,
        tier=tier or DETAILED,
    )


def run_cell(
    benchmark: str,
    rf_size: int,
    scheme: str,
    instructions: Optional[int] = None,
    redefine_delay: int = 0,
    record_register_events: bool = False,
    tier: Optional[TierPolicy] = None,
) -> CellResult:
    """Simulate one benchmark under one configuration.

    *tier* selects the simulation tier (default: full-trace detailed);
    tiered and detailed results of the same cell cache under distinct
    spec identities.
    """
    spec = cell_spec(benchmark, rf_size, scheme, instructions,
                     redefine_delay, record_register_events, tier)
    return resolve_specs({spec: spec}, jobs=1)[spec]


def region_report(benchmark: str, instructions: Optional[int] = None) -> RegionReport:
    """Trace-level region classification (no simulation needed)."""
    spec = RegionSpec(benchmark, instructions or default_instructions())
    return resolve_specs({spec: spec}, jobs=1)[spec]


def clear_result_cache() -> None:
    """Drop the in-process memo (the persistent store is unaffected;
    use ``repro cache clear`` / ``ResultStore.clear`` for that)."""
    _results.clear()


# -- aggregation helpers ---------------------------------------------------------


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values]
    if not values:
        raise ValueError("geomean of an empty sequence is undefined")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sequence is undefined")
    return sum(values) / len(values)


def speedup(test_ipc: float, base_ipc: float) -> float:
    """Fractional speedup (0.05 == +5%)."""
    if base_ipc == 0:
        raise ValueError("speedup is undefined for a zero baseline IPC")
    return test_ipc / base_ipc - 1.0


def suite_speedup(
    benchmarks: Sequence[str],
    rf_size: int,
    scheme: str,
    baseline: str = "baseline",
    instructions: Optional[int] = None,
    redefine_delay: int = 0,
    jobs: Optional[int] = None,
) -> float:
    """Mean per-benchmark speedup of *scheme* over *baseline* (the
    paper's 'average speedup' aggregation)."""
    benchmarks = list(benchmarks)
    if not benchmarks:
        raise ValueError("suite_speedup over an empty benchmark list")
    specs = {}
    for b in benchmarks:
        specs[b, "test"] = cell_spec(b, rf_size, scheme, instructions, redefine_delay)
        specs[b, "base"] = cell_spec(b, rf_size, baseline, instructions)
    cells = resolve_specs(specs, jobs)
    return mean(speedup(cells[b, "test"].ipc, cells[b, "base"].ipc)
                for b in benchmarks)

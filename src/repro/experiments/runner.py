"""Experiment execution: one simulation = one (benchmark, config) cell.

Every figure module builds on :func:`run_cell`, which resolves cells
through :mod:`repro.harness`: an in-process memo gives overlapping
sweeps (Figure 10's 64-register column reuses Figure 11's) identity-
cached results, and the harness's persistent store makes re-runs warm
across interpreter invocations.  Figures regenerate in parallel by
priming the memo with :func:`prime_cells` / :func:`prime_regions`, which
shard the cold cells over worker processes.

Scale is each call's ``instructions`` argument (``repro figure -n``);
without one, a cell simulates :func:`default_instructions` — 5000 dynamic
instructions per benchmark, enough for steady-state register-pressure
behaviour of these loop-dominated kernels.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis import RegionReport
from ..harness import (
    DETAILED,
    CellResult,
    CellSpec,
    RegionSpec,
    TierPolicy,
    default_store,
    simulate_cell,
    sweep,
)
from ..pipeline import CoreConfig
from ..workloads import SPEC_FP, SPEC_INT

__all__ = [
    "CellResult", "CellSpec", "RegionSpec", "TierPolicy", "DETAILED",
    "run_cell", "region_report", "prime_cells", "prime_regions",
    "clear_result_cache",
    "geomean", "mean", "speedup", "suite_speedup",
    "default_instructions", "default_int_suite", "default_fp_suite",
]


def default_instructions() -> int:
    return 5000


def default_int_suite() -> Tuple[str, ...]:
    return SPEC_INT


def default_fp_suite() -> Tuple[str, ...]:
    return SPEC_FP


_cell_cache: Dict[CellSpec, CellResult] = {}
_region_cache: Dict[RegionSpec, RegionReport] = {}


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
    config: Optional[CoreConfig] = None,
    use_cache: bool = True,
    tier: Optional[TierPolicy] = None,
) -> CellResult:
    """Simulate one benchmark under one configuration.

    With a custom *config* the cell is computed directly and never cached
    (the config is not part of the spec identity).  *tier* selects the
    simulation tier (default: full-trace detailed); tiered and detailed
    results of the same cell cache under distinct spec identities.
    """
    spec = cell_spec(benchmark, rf_size, scheme, instructions,
                     redefine_delay, record_register_events, tier)
    if config is not None:
        return simulate_cell(spec, config=config)
    if use_cache and spec in _cell_cache:
        return _cell_cache[spec]
    result = None
    store = default_store() if use_cache else None
    if store is not None:
        result = store.get(spec)
    if result is None:
        result = simulate_cell(spec)
        if store is not None:
            store.put(spec, result)
    if use_cache:
        _cell_cache[spec] = result
    return result


def region_report(benchmark: str, instructions: Optional[int] = None) -> RegionReport:
    """Trace-level region classification (no simulation needed)."""
    spec = RegionSpec(benchmark, instructions or default_instructions())
    if spec not in _region_cache:
        report = sweep([spec], jobs=1).require_complete()[spec]
        _region_cache[spec] = report
    return _region_cache[spec]


def prime_cells(specs: Iterable[CellSpec], jobs: Optional[int] = None) -> None:
    """Resolve *specs* (deduplicated, parallel across cores, store-backed)
    into the in-process memo, so subsequent :func:`run_cell` calls hit.

    ``jobs=None`` uses every core; raises :class:`repro.harness.SweepError`
    if any cell failed.
    """
    cold = [spec for spec in specs if spec not in _cell_cache]
    if not cold:
        return
    report = sweep(cold, jobs=jobs).require_complete()
    _cell_cache.update(report.results)


def prime_regions(specs: Iterable[RegionSpec], jobs: Optional[int] = None) -> None:
    """:func:`prime_cells`, for :func:`region_report` specs."""
    cold = [spec for spec in specs if spec not in _region_cache]
    if not cold:
        return
    report = sweep(cold, jobs=jobs).require_complete()
    _region_cache.update(report.results)


def clear_result_cache() -> None:
    """Drop the in-process memo (the persistent store is unaffected;
    use ``repro cache clear`` / ``ResultStore.clear`` for that)."""
    _cell_cache.clear()
    _region_cache.clear()


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
    if jobs is not None:
        prime_cells(
            [cell_spec(b, rf_size, s, instructions,
                       redefine_delay if s == scheme else 0)
             for b in benchmarks for s in (scheme, baseline)],
            jobs=jobs,
        )
    speedups = []
    for benchmark in benchmarks:
        test = run_cell(benchmark, rf_size, scheme, instructions,
                        redefine_delay=redefine_delay)
        base = run_cell(benchmark, rf_size, baseline, instructions)
        speedups.append(speedup(test.ipc, base.ipc))
    return mean(speedups)

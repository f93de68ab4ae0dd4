"""Chaos campaigns: many seeded cells through the parallel harness.

A campaign is a grid of :class:`~repro.validate.chaos.ChaosSpec` cells —
benchmarks x schemes x rf-sizes x seeds — executed by the existing sweep
scheduler (worker sharding, per-cell timeout, one diagnostic re-run).  The
persistent store is bypassed: a validation run must actually run.

``run_campaign`` returns a :class:`CampaignReport` separating three
outcomes per cell: **clean** (timing faults changed nothing), **violation**
(the sanitizer or the differential check caught a safety break — the
interesting case), and **harness failure** (the cell itself could not be
executed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..harness import CellFailure, CellResult, SweepProgress, sweep
from .chaos import INTENSITIES, ChaosSpec, execute_chaos_spec


def campaign_specs(
    benchmarks: Sequence[str],
    schemes: Sequence[str],
    rf_sizes: Sequence[int],
    seeds: Sequence[int],
    instructions: int,
    intensity: str = "medium",
    redefine_delay: int = 0,
) -> List[ChaosSpec]:
    """The full campaign grid, in deterministic order."""
    if intensity not in INTENSITIES:
        raise ValueError(f"unknown intensity {intensity!r}; "
                         f"expected one of {sorted(INTENSITIES)}")
    return [
        ChaosSpec(benchmark=benchmark, scheme=scheme, rf_size=rf_size,
                  instructions=instructions, seed=seed, intensity=intensity,
                  redefine_delay=redefine_delay)
        for benchmark in benchmarks
        for scheme in schemes
        for rf_size in rf_sizes
        for seed in seeds
    ]


class CampaignReport:
    """Outcome of one chaos campaign."""

    def __init__(self, results: Dict[ChaosSpec, CellResult],
                 failures: List[CellFailure]):
        self.results = results
        self.failures = failures

    @property
    def violations(self) -> List[Tuple[ChaosSpec, str]]:
        return [(spec, result.error)
                for spec, result in sorted(self.results.items(),
                                           key=lambda item: item[0].describe())
                if result.error is not None]

    @property
    def clean(self) -> int:
        return sum(1 for result in self.results.values()
                   if result.error is None)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.failures

    def render(self) -> str:
        by_scheme: Dict[str, List[CellResult]] = {}
        for result in self.results.values():
            by_scheme.setdefault(result.scheme, []).append(result)
        lines = [f"{'scheme':12} {'cells':>6} {'clean':>6} {'violations':>11}"]
        for scheme in sorted(by_scheme):
            cells = by_scheme[scheme]
            bad = sum(1 for cell in cells if cell.error is not None)
            lines.append(f"{scheme:12} {len(cells):6} {len(cells) - bad:6} "
                         f"{bad:11}")
        total_bad = len(self.violations)
        lines.append(
            f"campaign: {len(self.results)} cells, {self.clean} clean, "
            f"{total_bad} violation(s), {len(self.failures)} harness "
            f"failure(s)")
        for spec, error in self.violations:
            lines.append(f"\nVIOLATION {spec.describe()}:\n{error}")
        for failure in self.failures:
            lines.append(f"\nHARNESS FAILURE {failure.describe()}")
        return "\n".join(lines)


def run_campaign(
    specs: Sequence[ChaosSpec],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    progress: Optional[SweepProgress] = None,
) -> CampaignReport:
    """Execute every chaos cell through the parallel harness, uncached."""
    report = sweep(specs, jobs=jobs, store=None, timeout=timeout,
                   executor=execute_chaos_spec, progress=progress)
    return CampaignReport(report.results, report.failures)

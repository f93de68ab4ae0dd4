"""Figure 12: consumer count distribution per atomic region.

Most workloads' atomic regions have 1-2 consumers on average (namd is the
outlier with up to ~5), which is why the 3-bit consumer counter loses
essentially nothing against an infinite counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from . import expectations
from .report import format_table, shorten
from .runner import (
    RegionSpec,
    default_fp_suite,
    default_instructions,
    default_int_suite,
    resolve_specs,
)


@dataclass
class Fig12Result:
    #: benchmark -> consumer-count histogram over atomic regions
    histograms: Dict[str, Dict[int, int]]
    means: Dict[str, float]

    def render(self) -> str:
        max_bucket = 6
        headers = ["benchmark"] + [str(i) for i in range(max_bucket)] + ["6+", "mean"]
        rows = []
        for benchmark, histogram in self.histograms.items():
            total = sum(histogram.values()) or 1
            buckets = [histogram.get(i, 0) / total for i in range(max_bucket)]
            overflow = sum(v for k, v in histogram.items() if k >= max_bucket) / total
            rows.append([shorten(benchmark)] + [f"{b:.2f}" for b in buckets]
                        + [f"{overflow:.2f}", f"{self.means[benchmark]:.2f}"])
        table = format_table(headers, rows,
                             title="Figure 12: consumers per atomic region "
                                   "(fraction of regions)")
        lo, hi = expectations.FIG12_TYPICAL_MEAN_CONSUMERS
        typical = [m for b, m in self.means.items() if "namd" not in b]
        lines = [
            table, "",
            f"typical mean consumers: {min(typical):.2f}..{max(typical):.2f} "
            f"(paper: most workloads average 1-2, within {lo}..{hi})",
        ]
        if any("namd" in b for b in self.means):
            namd = next(m for b, m in self.means.items() if "namd" in b)
            lines.append(f"namd mean consumers: {namd:.2f} "
                         f"(paper: the outlier, regions with up to "
                         f"{expectations.FIG12_NAMD_MAX} consumers)")
        return "\n".join(lines)


def run(
    benchmarks: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Fig12Result:
    if benchmarks is None:
        benchmarks = list(default_int_suite()) + list(default_fp_suite())
    instructions = instructions or default_instructions()
    reports = resolve_specs(
        {b: RegionSpec(b, instructions) for b in benchmarks}, jobs)
    histograms: Dict[str, Dict[int, int]] = {}
    means: Dict[str, float] = {}
    for benchmark, report in reports.items():
        histograms[benchmark] = report.consumer_histogram()
        means[benchmark] = report.mean_consumers()
    return Fig12Result(histograms=histograms, means=means)

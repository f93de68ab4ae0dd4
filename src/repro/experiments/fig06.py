"""Figure 6: atomic register ratio.

Fraction of all allocated registers whose allocation chain lies in a
non-branch / non-except / atomic region, per benchmark.  Pure trace
analysis — no timing simulation involved (the paper likewise analyzes
regions at rename, independent of execution timing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from . import expectations
from .report import compare_line, format_table, shorten
from .runner import (
    RegionSpec,
    default_fp_suite,
    default_instructions,
    default_int_suite,
    mean,
    resolve_specs,
)


@dataclass
class Fig06Result:
    #: benchmark -> {"non_branch": x, "non_except": y, "atomic": z}
    ratios: Dict[str, Dict[str, float]]
    int_benchmarks: Sequence[str]
    fp_benchmarks: Sequence[str]

    def average(self, which: str, kind: str = "atomic") -> float:
        suite = self.int_benchmarks if which == "int" else self.fp_benchmarks
        return mean(self.ratios[b][kind] for b in suite)

    def render(self) -> str:
        rows = [
            [shorten(b), r["non_branch"], r["non_except"], r["atomic"]]
            for b, r in self.ratios.items()
        ]
        table = format_table(
            ["benchmark", "non-branch", "non-except", "atomic"], rows,
            title="Figure 6: atomic register ratio")
        lines = [
            table, "",
            compare_line("SPECint average atomic ratio",
                         self.average("int"), expectations.FIG06_INT_ATOMIC_RATIO),
            compare_line("SPECfp average atomic ratio",
                         self.average("fp"), expectations.FIG06_FP_ATOMIC_RATIO),
        ]
        return "\n".join(lines)


def run(
    int_benchmarks: Optional[Sequence[str]] = None,
    fp_benchmarks: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Fig06Result:
    int_benchmarks = list(default_int_suite() if int_benchmarks is None else int_benchmarks)
    fp_benchmarks = list(default_fp_suite() if fp_benchmarks is None else fp_benchmarks)
    instructions = instructions or default_instructions()
    reports = resolve_specs(
        {b: RegionSpec(b, instructions) for b in int_benchmarks + fp_benchmarks},
        jobs,
    )
    ratios: Dict[str, Dict[str, float]] = {
        benchmark: {kind: report.ratio(kind)
                    for kind in ("non_branch", "non_except", "atomic")}
        for benchmark, report in reports.items()
    }
    return Fig06Result(
        ratios=ratios, int_benchmarks=int_benchmarks, fp_benchmarks=fp_benchmarks
    )

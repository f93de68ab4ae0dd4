"""Figure 10: IPC speedup over the baseline at 64 and 224 registers.

Four schemes per benchmark: baseline, nonspec-ER, ATR ("atomic"), and the
combined scheme.  The paper's headline comparison: at 64 registers ATR
gains 5.70% (int) / 4.69% (fp), nonspec-ER gains 13.91% / 14.43%, and
combined adds 3.23% / 3.27% on top of nonspec-ER.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from . import expectations
from .report import compare_line, format_table, pct, shorten
from .runner import (
    cell_spec,
    default_fp_suite,
    default_instructions,
    default_int_suite,
    mean,
    resolve_specs,
    speedup,
)

SCHEMES = ("nonspec_er", "atr", "combined")
DEFAULT_SIZES = (64, 224)


@dataclass
class Fig10Result:
    sizes: Sequence[int]
    int_benchmarks: Sequence[str]
    fp_benchmarks: Sequence[str]
    #: (benchmark, rf_size, scheme) -> speedup over baseline
    speedups: Dict[Tuple[str, int, str], float]

    def average(self, which: str, rf_size: int, scheme: str) -> float:
        suite = self.int_benchmarks if which == "int" else self.fp_benchmarks
        return mean(self.speedups[(b, rf_size, scheme)] for b in suite)

    def combined_over_nonspec(self, which: str, rf_size: int) -> float:
        suite = self.int_benchmarks if which == "int" else self.fp_benchmarks
        gains = []
        for benchmark in suite:
            combined = 1 + self.speedups[(benchmark, rf_size, "combined")]
            nonspec = 1 + self.speedups[(benchmark, rf_size, "nonspec_er")]
            gains.append(combined / nonspec - 1)
        return mean(gains)

    def render(self) -> str:
        blocks = []
        for rf_size in self.sizes:
            rows = []
            for benchmark in list(self.int_benchmarks) + list(self.fp_benchmarks):
                rows.append(
                    [shorten(benchmark)]
                    + [pct(self.speedups[(benchmark, rf_size, s)]) for s in SCHEMES]
                )
            rows.append(["INT AVERAGE"] + [pct(self.average("int", rf_size, s)) for s in SCHEMES])
            rows.append(["FP AVERAGE"] + [pct(self.average("fp", rf_size, s)) for s in SCHEMES])
            blocks.append(format_table(
                ["benchmark", "nonspec_er", "atr", "combined"], rows,
                title=f"Figure 10: speedup over baseline, {rf_size} registers"))
        e = expectations.FIG10
        lines = blocks + [
            "",
            compare_line("atr int @64", self.average("int", 64, "atr"), e[(64, "atr", "int")]),
            compare_line("atr fp  @64", self.average("fp", 64, "atr"), e[(64, "atr", "fp")]),
            compare_line("nonspec int @64", self.average("int", 64, "nonspec_er"),
                         e[(64, "nonspec_er", "int")]),
            compare_line("nonspec fp  @64", self.average("fp", 64, "nonspec_er"),
                         e[(64, "nonspec_er", "fp")]),
            compare_line("combined-over-nonspec int @64",
                         self.combined_over_nonspec("int", 64),
                         e[(64, "combined_over_nonspec", "int")]),
            compare_line("combined-over-nonspec fp  @64",
                         self.combined_over_nonspec("fp", 64),
                         e[(64, "combined_over_nonspec", "fp")]),
        ]
        if 224 in self.sizes:
            lines += [
                compare_line("atr int @224", self.average("int", 224, "atr"),
                             e[(224, "atr", "int")]),
                compare_line("atr fp  @224", self.average("fp", 224, "atr"),
                             e[(224, "atr", "fp")]),
            ]
        return "\n".join(lines)


def run(
    int_benchmarks: Optional[Sequence[str]] = None,
    fp_benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    instructions: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Fig10Result:
    int_benchmarks = list(default_int_suite() if int_benchmarks is None else int_benchmarks)
    fp_benchmarks = list(default_fp_suite() if fp_benchmarks is None else fp_benchmarks)
    instructions = instructions or default_instructions()
    cells = resolve_specs(
        {(b, rf_size, scheme): cell_spec(b, rf_size, scheme, instructions)
         for b in int_benchmarks + fp_benchmarks
         for rf_size in sizes
         for scheme in ("baseline",) + SCHEMES},
        jobs,
    )
    speedups: Dict[Tuple[str, int, str], float] = {
        (b, rf_size, scheme): speedup(cell.ipc, cells[b, rf_size, "baseline"].ipc)
        for (b, rf_size, scheme), cell in cells.items() if scheme != "baseline"
    }
    return Fig10Result(
        sizes=sizes,
        int_benchmarks=int_benchmarks,
        fp_benchmarks=fp_benchmarks,
        speedups=speedups,
    )

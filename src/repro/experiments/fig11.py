"""Figure 11: ATR speedup over baseline vs register file size.

The gains shrink monotonically as registers stop being the bottleneck:
5.70%/4.69% (int/fp) at 64 registers down to 0.93%/0.53% at 280.
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

DEFAULT_SIZES: Tuple[int, ...] = (64, 96, 128, 160, 192, 224, 256, 280)


@dataclass
class Fig11Result:
    sizes: Sequence[int]
    int_benchmarks: Sequence[str]
    fp_benchmarks: Sequence[str]
    speedups: Dict[Tuple[str, int], float]  # (benchmark, rf) -> atr speedup

    def average(self, which: str, rf_size: int) -> float:
        suite = self.int_benchmarks if which == "int" else self.fp_benchmarks
        return mean(self.speedups[(b, rf_size)] for b in suite)

    def render(self) -> str:
        headers = ["benchmark"] + [str(s) for s in self.sizes]
        rows = []
        for benchmark in list(self.int_benchmarks) + list(self.fp_benchmarks):
            rows.append([shorten(benchmark)]
                        + [pct(self.speedups[(benchmark, s)]) for s in self.sizes])
        # A suite may be empty (e.g. an int-only sweep); averages over an
        # empty suite are undefined, so skip those rows entirely.
        if self.int_benchmarks:
            rows.append(["INT AVERAGE"]
                        + [pct(self.average("int", s)) for s in self.sizes])
        if self.fp_benchmarks:
            rows.append(["FP AVERAGE"]
                        + [pct(self.average("fp", s)) for s in self.sizes])
        table = format_table(headers, rows,
                             title="Figure 11: ATR speedup over baseline vs RF size")
        lo, hi = min(self.sizes), max(self.sizes)
        lines = [table, ""]
        if self.int_benchmarks:
            lines += [
                compare_line(f"int @{lo}", self.average("int", lo),
                             expectations.FIG11_ATR_AT_64["int"]),
                compare_line(f"int @{hi}", self.average("int", hi),
                             expectations.FIG11_ATR_AT_280["int"]),
            ]
        if self.fp_benchmarks:
            lines += [
                compare_line(f"fp  @{lo}", self.average("fp", lo),
                             expectations.FIG11_ATR_AT_64["fp"]),
                compare_line(f"fp  @{hi}", self.average("fp", hi),
                             expectations.FIG11_ATR_AT_280["fp"]),
            ]
        return "\n".join(lines)


def run(
    int_benchmarks: Optional[Sequence[str]] = None,
    fp_benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    instructions: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Fig11Result:
    int_benchmarks = list(default_int_suite() if int_benchmarks is None else int_benchmarks)
    fp_benchmarks = list(default_fp_suite() if fp_benchmarks is None else fp_benchmarks)
    instructions = instructions or default_instructions()
    cells = resolve_specs(
        {(b, rf_size, scheme): cell_spec(b, rf_size, scheme, instructions)
         for b in int_benchmarks + fp_benchmarks
         for rf_size in sizes
         for scheme in ("baseline", "atr")},
        jobs,
    )
    speedups: Dict[Tuple[str, int], float] = {
        (b, rf_size): speedup(cell.ipc, cells[b, rf_size, "baseline"].ipc)
        for (b, rf_size, scheme), cell in cells.items() if scheme == "atr"
    }
    return Fig11Result(
        sizes=sizes,
        int_benchmarks=int_benchmarks,
        fp_benchmarks=fp_benchmarks,
        speedups=speedups,
    )

"""Figure 13: effect of pipelining the register redefinition logic.

The bulk no-early-release logic may need 1-2 pipeline stages to meet
clock (section 4.4); that delays the redefinition signal by the same
number of cycles.  Because consumption almost always happens well after
redefinition (Figure 14), the performance cost is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from . import expectations
from .report import format_table, pct, shorten
from .runner import (
    cell_spec,
    default_instructions,
    default_int_suite,
    mean,
    resolve_specs,
    speedup,
)

DELAYS = (0, 1, 2)


@dataclass
class Fig13Result:
    benchmarks: Sequence[str]
    rf_size: int
    #: (benchmark, delay) -> ATR speedup over baseline
    speedups: Dict[Tuple[str, int], float]

    def average(self, delay: int) -> float:
        return mean(self.speedups[(b, delay)] for b in self.benchmarks)

    def max_degradation(self) -> float:
        """Worst average-IPC loss of delay 1/2 relative to delay 0."""
        base = 1 + self.average(0)
        worst = 0.0
        for delay in DELAYS[1:]:
            worst = max(worst, 1 - (1 + self.average(delay)) / base)
        return worst

    def render(self) -> str:
        headers = ["benchmark"] + [f"delay={d}" for d in DELAYS]
        rows = [
            [shorten(b)] + [pct(self.speedups[(b, d)]) for d in DELAYS]
            for b in self.benchmarks
        ]
        rows.append(["AVERAGE"] + [pct(self.average(d)) for d in DELAYS])
        table = format_table(headers, rows,
                             title=f"Figure 13: ATR speedup with pipelined "
                                   f"redefinition ({self.rf_size} registers)")
        return (
            f"{table}\n\n"
            f"max average degradation from pipelining: "
            f"{self.max_degradation() * 100:.2f}% "
            f"(paper: negligible, < {expectations.FIG13_MAX_DEGRADATION * 100:.0f}%)"
        )


def run(
    benchmarks: Optional[Sequence[str]] = None,
    rf_size: int = 64,
    instructions: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Fig13Result:
    benchmarks = list(default_int_suite() if benchmarks is None else benchmarks)
    instructions = instructions or default_instructions()
    specs = {(b, "baseline"): cell_spec(b, rf_size, "baseline", instructions)
             for b in benchmarks}
    specs.update({(b, d): cell_spec(b, rf_size, "atr", instructions,
                                    redefine_delay=d)
                  for b in benchmarks for d in DELAYS})
    cells = resolve_specs(specs, jobs)
    speedups: Dict[Tuple[str, int], float] = {
        (b, d): speedup(cells[b, d].ipc, cells[b, "baseline"].ipc)
        for b in benchmarks for d in DELAYS
    }
    return Fig13Result(benchmarks=benchmarks, rf_size=rf_size, speedups=speedups)

"""Figure 1: baseline IPC vs physical register file size.

The paper shows normalized IPC (1.0 = infinite registers) rising from
37.7% at 64 registers to within 5% of ideal at 280, on the int suite.
"IPC improves with increasing register file size" is the motivating
observation for everything that follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import expectations
from .report import format_table, shorten
from .runner import (
    cell_spec,
    default_instructions,
    default_int_suite,
    mean,
    resolve_specs,
)

#: The "infinite" configuration: more registers than the 512-entry ROB
#: can ever hold live, so rename never stalls on the free list.
IDEAL_RF = 560

DEFAULT_SIZES: Tuple[int, ...] = (64, 96, 128, 160, 192, 224, 256, 280)


@dataclass
class Fig01Result:
    sizes: Sequence[int]
    benchmarks: Sequence[str]
    #: benchmark -> {rf_size: normalized IPC}
    normalized: Dict[str, Dict[int, float]]
    average: Dict[int, float]

    def render(self) -> str:
        headers = ["benchmark"] + [str(s) for s in self.sizes]
        rows = []
        for benchmark in self.benchmarks:
            per = self.normalized[benchmark]
            rows.append([shorten(benchmark)] + [per[s] for s in self.sizes])
        rows.append(["AVERAGE"] + [self.average[s] for s in self.sizes])
        table = format_table(headers, rows,
                             title="Figure 1: normalized IPC vs register file size "
                                   "(1.0 = infinite registers)")
        notes = [
            "",
            f"measured avg at 64 regs: {self.average[min(self.sizes)]:.3f}   "
            f"paper: {expectations.FIG01_IPC_FRACTION_AT_64:.3f}",
        ]
        return table + "\n" + "\n".join(notes)


def run(
    benchmarks: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    instructions: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Fig01Result:
    benchmarks = list(default_int_suite() if benchmarks is None else benchmarks)
    instructions = instructions or default_instructions()
    cells = resolve_specs(
        {(b, size): cell_spec(b, size, "baseline", instructions)
         for b in benchmarks for size in (IDEAL_RF, *sizes)},
        jobs,
    )
    normalized: Dict[str, Dict[int, float]] = {}
    for benchmark in benchmarks:
        ideal = cells[benchmark, IDEAL_RF].ipc
        normalized[benchmark] = {
            size: cells[benchmark, size].ipc / ideal for size in sizes
        }
    average = {
        size: mean(normalized[b][size] for b in benchmarks) for size in sizes
    }
    return Fig01Result(
        sizes=sizes, benchmarks=benchmarks, normalized=normalized, average=average
    )

"""Figure 4: cycle-count distribution across the register lifecycle.

Shares of register-allocated cycles spent in-use / unused /
verified-unused, on the baseline machine: the gap between *unused* (what
oracle speculative release could reclaim) and *verified-unused* (what
precommit-ordered release reclaims) is ATR's opportunity.  The paper
reports the scalar file for SPECint and the vector file for SPECfp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..analysis import LifetimeShares, lifetime_shares
from ..isa import RegClass
from . import expectations
from .report import compare_line, format_table, shorten
from .runner import (
    cell_spec,
    default_fp_suite,
    default_instructions,
    default_int_suite,
    resolve_specs,
)


@dataclass
class Fig04Result:
    per_benchmark: Dict[str, LifetimeShares]
    int_total: LifetimeShares
    fp_total: LifetimeShares

    def render(self) -> str:
        rows = [
            [shorten(b), s.in_use, s.unused, s.verified_unused]
            for b, s in self.per_benchmark.items()
        ]
        rows.append(["INT (scalar file)", self.int_total.in_use,
                     self.int_total.unused, self.int_total.verified_unused])
        rows.append(["FP (vector file)", self.fp_total.in_use,
                     self.fp_total.unused, self.fp_total.verified_unused])
        table = format_table(
            ["benchmark", "in-use", "unused", "verified-unused"], rows,
            title="Figure 4: register lifecycle shares (baseline)")
        paper_int = expectations.FIG04_INT
        paper_fp = expectations.FIG04_FP
        lines = [
            table, "",
            compare_line("int in-use share", self.int_total.in_use, paper_int["in_use"]),
            compare_line("int unused share", self.int_total.unused, paper_int["unused"]),
            compare_line("int verified-unused share",
                         self.int_total.verified_unused, paper_int["verified_unused"]),
            compare_line("fp (vector) in-use share", self.fp_total.in_use, paper_fp["in_use"]),
            compare_line("fp (vector) unused share", self.fp_total.unused, paper_fp["unused"]),
            compare_line("fp (vector) verified-unused share",
                         self.fp_total.verified_unused, paper_fp["verified_unused"]),
        ]
        return "\n".join(lines)


def run(
    int_benchmarks: Optional[Sequence[str]] = None,
    fp_benchmarks: Optional[Sequence[str]] = None,
    rf_size: int = 280,
    instructions: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Fig04Result:
    int_benchmarks = list(default_int_suite() if int_benchmarks is None else int_benchmarks)
    fp_benchmarks = list(default_fp_suite() if fp_benchmarks is None else fp_benchmarks)
    instructions = instructions or default_instructions()
    cells = resolve_specs(
        {b: cell_spec(b, rf_size, "baseline", instructions,
                      record_register_events=True)
         for b in int_benchmarks + fp_benchmarks},
        jobs,
    )
    per_benchmark: Dict[str, LifetimeShares] = {}
    records = {RegClass.INT: [], RegClass.VEC: []}
    for suite, file in ((int_benchmarks, RegClass.INT),
                        (fp_benchmarks, RegClass.VEC)):
        for benchmark in suite:
            events = cells[benchmark].event_records
            per_benchmark[benchmark] = lifetime_shares(events, file)
            records[file].extend(events)
    return Fig04Result(
        per_benchmark=per_benchmark,
        int_total=lifetime_shares(records[RegClass.INT], RegClass.INT),
        fp_total=lifetime_shares(records[RegClass.VEC], RegClass.VEC),
    )

"""Figure 14: average cycles between rename, redefine, consume, and
commit within atomic commit regions.

Redefinition happens at rename (no data dependences involved), so it
arrives much earlier than the last consumption; the redefining
instruction's commit is later still.  ATR holds a register only until
max(redefine, consume) — far shorter than the baseline's hold-to-commit —
and the consume >> redefine gap is why delaying the redefinition signal
by 1-2 cycles (Figure 13) costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..analysis import EventTiming, atomic_event_timing
from .report import format_table, shorten
from .runner import (
    RegionSpec,
    cell_spec,
    default_fp_suite,
    default_instructions,
    default_int_suite,
    mean,
    resolve_specs,
)


@dataclass
class Fig14Result:
    timings: Dict[str, EventTiming]

    def render(self) -> str:
        rows = []
        for benchmark, timing in self.timings.items():
            rows.append([
                shorten(benchmark),
                f"{timing.rename_to_redefine:.1f}",
                f"{timing.rename_to_consume:.1f}",
                f"{timing.rename_to_commit:.1f}",
                timing.chains,
            ])
        populated = [t for t in self.timings.values() if t.chains]
        if populated:
            rows.append([
                "AVERAGE",
                f"{mean(t.rename_to_redefine for t in populated):.1f}",
                f"{mean(t.rename_to_consume for t in populated):.1f}",
                f"{mean(t.rename_to_commit for t in populated):.1f}",
                sum(t.chains for t in populated),
            ])
        table = format_table(
            ["benchmark", "to-redefine", "to-consume", "to-commit", "chains"],
            rows,
            title="Figure 14: avg cycles from rename, within atomic regions")
        ok = all(
            t.rename_to_redefine <= t.rename_to_consume + 1e-9
            and t.rename_to_consume <= t.rename_to_commit + 1e-9
            for t in populated
        )
        return (
            f"{table}\n\n"
            f"ordering redefine <= consume <= commit holds for all "
            f"benchmarks: {ok} (paper: consumption happens significantly "
            f"later than redefinition)"
        )


def run(
    benchmarks: Optional[Sequence[str]] = None,
    rf_size: int = 280,
    instructions: Optional[int] = None,
    jobs: Optional[int] = None,
) -> Fig14Result:
    if benchmarks is None:
        benchmarks = list(default_int_suite()) + list(default_fp_suite())
    instructions = instructions or default_instructions()
    specs = {}
    for b in benchmarks:
        specs[b, "cell"] = cell_spec(b, rf_size, "baseline", instructions,
                                     record_register_events=True)
        specs[b, "regions"] = RegionSpec(b, instructions)
    results = resolve_specs(specs, jobs)
    timings: Dict[str, EventTiming] = {
        b: atomic_event_timing(results[b, "cell"].event_records,
                               results[b, "regions"])
        for b in benchmarks
    }
    return Fig14Result(timings=timings)

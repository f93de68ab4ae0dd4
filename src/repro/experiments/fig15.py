"""Figure 15: register file size needed to stay within 3% of the
280-register baseline, plus the McPAT power/area deltas.

The paper: ATR needs 204 registers (-27.1%), nonspec-ER 212 (-24.3%),
combined 196 (-30%); the ATR configuration saves 5.5% runtime power and
2.7% core area (combined: 5.5% / 2.9%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..hwmodel import CorePowerModel
from ..pipeline import golden_cove_config
from . import expectations
from .report import compare_line, format_table
from .runner import (
    CellResult,
    cell_spec,
    default_instructions,
    default_int_suite,
    mean,
    resolve_specs,
)

SCHEMES = ("baseline", "nonspec_er", "atr", "combined")
#: 3-bit consumer counter per physical register for the ER schemes.
_EXTRA_BITS = {"baseline": 0, "nonspec_er": 3, "atr": 3, "combined": 3}


@dataclass
class Fig15Result:
    reference_rf: int
    slowdown_budget: float
    required: Dict[str, int]
    power_delta: Dict[str, float]
    area_delta: Dict[str, float]

    def reduction(self, scheme: str) -> float:
        return 1 - self.required[scheme] / self.reference_rf

    def render(self) -> str:
        rows = [
            [scheme, self.required[scheme], f"{self.reduction(scheme) * 100:.1f}%",
             f"{self.power_delta[scheme] * 100:+.1f}%",
             f"{self.area_delta[scheme] * 100:+.1f}%"]
            for scheme in SCHEMES
        ]
        table = format_table(
            ["scheme", "registers needed", "RF reduction", "power", "area"],
            rows,
            title=f"Figure 15: overhead to stay within "
                  f"{self.slowdown_budget * 100:.0f}% of the "
                  f"{self.reference_rf}-register baseline")
        e = expectations
        lines = [
            table, "",
            compare_line("atr RF reduction", self.reduction("atr"),
                         e.FIG15_REDUCTION["atr"]),
            compare_line("nonspec RF reduction", self.reduction("nonspec_er"),
                         e.FIG15_REDUCTION["nonspec_er"]),
            compare_line("combined RF reduction", self.reduction("combined"),
                         e.FIG15_REDUCTION["combined"]),
            compare_line("atr power saving", -self.power_delta["atr"],
                         e.FIG15_POWER_SAVING["atr"]),
            compare_line("atr area saving", -self.area_delta["atr"],
                         e.FIG15_AREA_SAVING["atr"]),
        ]
        return "\n".join(lines)


def _suite_cells(benchmarks, rf_size, scheme, instructions,
                 jobs) -> Dict[str, CellResult]:
    return resolve_specs(
        {b: cell_spec(b, rf_size, scheme, instructions) for b in benchmarks},
        jobs)


def _suite_ipc(benchmarks, rf_size, scheme, instructions, jobs) -> float:
    cells = _suite_cells(benchmarks, rf_size, scheme, instructions, jobs)
    return mean(cells[b].ipc for b in benchmarks)


def minimum_rf_size(
    benchmarks: Sequence[str],
    scheme: str,
    target_ipc: float,
    instructions: int,
    lo: int = 48,
    hi: int = 280,
    step: int = 4,
    jobs: Optional[int] = None,
) -> int:
    """Smallest RF size (on a *step* grid) whose suite IPC >= target.

    Suite IPC is monotone in RF size to within noise, so a binary search
    over the grid suffices.  The search is sequential across sizes, but
    each probe's suite sweeps in parallel with *jobs* workers.
    """
    lo_idx, hi_idx = 0, (hi - lo) // step
    # Ensure the target is achievable at the top of the range.
    if _suite_ipc(benchmarks, hi, scheme, instructions, jobs) < target_ipc:
        return hi
    while lo_idx < hi_idx:
        mid = (lo_idx + hi_idx) // 2
        size = lo + mid * step
        if _suite_ipc(benchmarks, size, scheme, instructions, jobs) >= target_ipc:
            hi_idx = mid
        else:
            lo_idx = mid + 1
    return lo + lo_idx * step


def run(
    benchmarks: Optional[Sequence[str]] = None,
    reference_rf: int = 280,
    slowdown_budget: float = 0.03,
    instructions: Optional[int] = None,
    step: int = 4,
    jobs: Optional[int] = None,
) -> Fig15Result:
    benchmarks = list(default_int_suite() if benchmarks is None else benchmarks)
    instructions = instructions or default_instructions()

    reference_ipc = _suite_ipc(benchmarks, reference_rf, "baseline",
                               instructions, jobs)
    target = reference_ipc * (1 - slowdown_budget)

    required: Dict[str, int] = {}
    power: Dict[str, float] = {}
    area: Dict[str, float] = {}
    reference_config = golden_cove_config(rf_size=reference_rf)
    reference_model = CorePowerModel(reference_config, extra_prf_bits=0)
    reference_cell = _suite_cells(benchmarks, reference_rf, "baseline",
                                  instructions, jobs)[benchmarks[0]]
    reference_power = reference_model.runtime_power(reference_cell.stats)
    reference_area = reference_model.core_area()

    for scheme in SCHEMES:
        required[scheme] = minimum_rf_size(
            benchmarks, scheme, target, instructions, hi=reference_rf, step=step,
            jobs=jobs,
        )
        config = golden_cove_config(rf_size=required[scheme])
        model = CorePowerModel(config, extra_prf_bits=_EXTRA_BITS[scheme])
        cell = _suite_cells(benchmarks, required[scheme], scheme,
                            instructions, jobs)[benchmarks[0]]
        power[scheme] = (model.runtime_power(cell.stats) - reference_power) / reference_power
        area[scheme] = (model.core_area() - reference_area) / reference_area

    return Fig15Result(
        reference_rf=reference_rf,
        slowdown_budget=slowdown_budget,
        required=required,
        power_delta=power,
        area_delta=area,
    )

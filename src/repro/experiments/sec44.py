"""Section 4.4: hardware overheads of ATR.

Reproduces the synthesis study of the bulk no-early-release logic (the
paper reports 42 logic levels / 2,960 gates / 2.6 GHz un-pipelined from
Yosys at an assumed 4.5 ps-FO4 5nm node with 100% wire margin) and the
consumer-counter storage overhead (3/64 = 4.6% scalar, 3/256 = 1.1%
vector).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hwmodel import BulkLogicSpec, TimingReport, consumer_counter_overhead, timing_report
from . import expectations
from .report import compare_line


@dataclass
class Sec44Result:
    timing: TimingReport
    counter_overhead_int: float
    counter_overhead_vec: float

    def render(self) -> str:
        t = self.timing
        lines = [
            "Section 4.4: ATR hardware overheads",
            f"  bulk-NER circuit: {t.gates} gates, {t.logic_levels} logic levels, "
            f"{t.fo4_delay:.1f} FO4",
            f"  un-pipelined delay {t.delay_ps:.0f} ps -> "
            f"{t.max_frequency_ghz:.2f} GHz; with 2 extra pipeline stages: "
            f"{t.frequency_with_pipelining(3):.1f} GHz",
            "",
            compare_line("gate count", t.gates, expectations.SEC44_GATES, as_pct=False),
            compare_line("un-pipelined frequency (GHz)", t.max_frequency_ghz,
                         expectations.SEC44_FREQ_GHZ, as_pct=False),
            compare_line("counter overhead (scalar)", self.counter_overhead_int,
                         expectations.SEC44_COUNTER_OVERHEAD_INT),
            compare_line("counter overhead (vector)", self.counter_overhead_vec,
                         expectations.SEC44_COUNTER_OVERHEAD_VEC),
            "",
            "note: the paper's 42 levels are Yosys standard-cell levels "
            "(2-input NAND decomposition); our netlist counts complex-gate "
            "levels, hence the smaller depth at a comparable gate count.",
        ]
        return "\n".join(lines)


def run(spec: BulkLogicSpec = BulkLogicSpec()) -> Sec44Result:
    return Sec44Result(
        timing=timing_report(spec),
        counter_overhead_int=consumer_counter_overhead(64, 3),
        counter_overhead_vec=consumer_counter_overhead(256, 3),
    )

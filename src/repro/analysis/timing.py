"""Event-timing analysis within atomic regions (paper Figures 5 and 14).

Figure 14 reports, averaged over atomic-region register chains, the cycle
distance from a register's rename to (1) its redefinition, (2) its last
consumption, and (3) the commit of its redefining instruction.  ATR holds
a register only for (max of 1 and 2); the baseline holds it until (3).

Figure 5 is a qualitative table of per-instruction stage timings
(renamed / executed / completed / precommitted) for a code window; the
``timeline_table`` helper renders the same view from the rows a
:class:`~repro.pipeline.stats.TimelineProbe` recorded during a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..frontend import Trace
from ..isa import RegClass
from ..pipeline.stats import RegisterLifetime
from .regions import RegionReport


@dataclass
class EventTiming:
    """Figure 14 bar group for one benchmark."""

    rename_to_redefine: float
    rename_to_consume: float
    rename_to_commit: float
    chains: int

    def as_row(self) -> str:
        return (
            f"redefine +{self.rename_to_redefine:7.1f}   "
            f"consume +{self.rename_to_consume:7.1f}   "
            f"commit +{self.rename_to_commit:7.1f}   ({self.chains} chains)"
        )


def atomic_event_timing(
    records: Iterable[RegisterLifetime],
    region_report: RegionReport,
    file: Optional[RegClass] = None,
) -> EventTiming:
    """Join pipeline timings with the trace-level atomic classification.

    Records and region chains are matched on the allocating instruction's
    trace sequence number plus the register file.
    """
    atomic_keys = {
        (chain.file, chain.alloc_seq, chain.redefine_seq)
        for chain in region_report.atomic_chains(file)
    }
    d_redefine: List[int] = []
    d_consume: List[int] = []
    d_commit: List[int] = []
    for record in records:
        if file is not None and record.file is not file:
            continue
        if not record.complete or record.redefine_cycle is None:
            continue
        if (record.file, record.alloc_seq, record.redefine_seq) not in atomic_keys:
            continue
        d_redefine.append(record.redefine_cycle - record.alloc_cycle)
        consume = record.last_consume_cycle
        d_consume.append((consume if consume is not None else record.alloc_cycle)
                         - record.alloc_cycle)
        d_commit.append(record.redefiner_commit_cycle - record.alloc_cycle)
    count = len(d_redefine)
    if count == 0:
        return EventTiming(0.0, 0.0, 0.0, 0)
    return EventTiming(
        rename_to_redefine=sum(d_redefine) / count,
        rename_to_consume=sum(d_consume) / count,
        rename_to_commit=sum(d_commit) / count,
        chains=count,
    )


def timeline_table(
    timeline: Sequence[tuple],
    trace: Trace,
    start_seq: int,
    count: int = 8,
) -> str:
    """A Figure 5-style stage-timing table for a window of the trace.

    *timeline* rows are ``(trace_seq, pc, rename, issue, complete,
    precommit, commit)`` tuples: ``TimelineProbe.rows``.
    """
    rows = {row[0]: row for row in timeline}
    lines = [f"{'seq':>6} {'instruction':32} {'Re':>6} {'Ex':>6} {'Cm':>6} {'Pr':>6}"]
    for seq in range(start_seq, start_seq + count):
        row = rows.get(seq)
        if row is None or seq >= len(trace.entries):
            continue
        instr = trace.entries[seq].instr
        _, _pc, rename, issue, complete, precommit, _commit = row
        lines.append(
            f"{seq:>6} {instr.render():32} {rename:>6} {issue:>6} "
            f"{complete:>6} {precommit:>6}"
        )
    return "\n".join(lines)

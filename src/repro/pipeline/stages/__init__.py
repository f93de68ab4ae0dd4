"""The staged pipeline: one module per per-cycle phase.

Each stage implements ``Stage.run(state, cycle)`` over the shared
:class:`~repro.pipeline.state.PipelineState`, mirroring the documented
phase order (oldest work first):

1. scheme tick (delayed ATR redefinition signals become visible)
2. execute — completions: writeback, wakeup, branch resolution -> flush
   (:mod:`.execute`)
3. precommit pointer advance (:mod:`.precommit`)
4. commit, up to retire width (:mod:`.commit`)
5. issue — select oldest-ready per port group (:mod:`.issue`)
6. rename/dispatch, up to rename width, with all stall causes
   (:mod:`.rename`)
7. fetch — up to 2 fetch targets / 6 instructions, icache modeled
   (:mod:`.fetch`)

Flush (:mod:`.flush`) is event-driven, not per-cycle: branch resolution
(execute stage) and the interrupt controller invoke it.  Stages bind hot
state attributes at construction and emit probe events
(:mod:`repro.pipeline.probes`) only when a probe is registered.
"""

from __future__ import annotations


class Stage:
    """One pipeline phase bound to a :class:`PipelineState`.

    Stages cache hot, identity-stable state attributes at construction
    (the ROB, the scheme, heaps, value arrays); anything reassigned at
    runtime (counters, cursors, the probe manager) is read through
    ``state`` inside :meth:`run`.
    """

    name = "abstract"

    def __init__(self, state):
        self.state = state
        self.config = state.config

    def run(self, state, cycle: int) -> None:
        raise NotImplementedError


from .commit import CommitStage
from .execute import ExecuteStage, ExecuteUnit
from .fetch import FetchStage
from .flush import FlushStage
from .issue import PORT_GROUPS, IssueStage, enqueue_ready
from .precommit import PrecommitStage
from .rename import RenameStage


class StagePipeline:
    """The constructed stages of one core, in per-cycle run order."""

    __slots__ = ("fetch", "rename", "issue", "execute", "precommit",
                 "commit", "flush", "execute_unit", "in_order")

    def __init__(self, fetch: FetchStage, rename: RenameStage,
                 issue: IssueStage, execute: ExecuteStage,
                 precommit: PrecommitStage, commit: CommitStage,
                 flush: FlushStage, execute_unit: ExecuteUnit):
        self.fetch = fetch
        self.rename = rename
        self.issue = issue
        self.execute = execute
        self.precommit = precommit
        self.commit = commit
        self.flush = flush
        self.execute_unit = execute_unit
        #: Per-cycle phase order (the scheme tick precedes these).
        self.in_order = (execute, precommit, commit, issue, rename, fetch)


__all__ = [
    "Stage", "StagePipeline",
    "FetchStage", "RenameStage", "IssueStage", "ExecuteStage",
    "ExecuteUnit", "PrecommitStage", "CommitStage", "FlushStage",
    "PORT_GROUPS", "enqueue_ready",
]

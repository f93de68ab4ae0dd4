"""Simulation statistics and the two observers the analysis reads.

``SimStats`` aggregates everything a run reports (IPC, stall breakdown,
flush counts).  The observers are plain probes (:mod:`.probes`), attached
with ``Core.add_probe``, so an unobserved core pays nothing for them:

* :class:`RegisterEventLog` records, per physical-register allocation on
  the committed path, the five lifecycle events of paper section 3.1 —
  Renamed, Consumed (last consumer executes), Redefined,
  Redefiner-Precommitted, Redefiner-Committed — which the analysis
  package turns into Figures 4 and 14;
* :class:`TimelineProbe` records each committed instruction's stage
  cycles, the rows of the Figure 5 table
  (:func:`repro.analysis.timeline_table`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..isa import RegClass
from .probes import Probe


@dataclass
class SimStats:
    """Aggregate counters for one simulation run."""

    cycles: int = 0
    committed: int = 0
    committed_by_class: Dict[str, int] = field(default_factory=dict)
    fetched: int = 0
    renamed: int = 0
    wrong_path_renamed: int = 0
    flushes: int = 0
    flushed_instructions: int = 0

    # Rename stall cycles by cause (a cycle is charged to the first
    # blocking cause encountered).
    stall_freelist: int = 0
    stall_rob: int = 0
    stall_rs: int = 0
    stall_lq: int = 0
    stall_sq: int = 0
    stall_empty: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def to_dict(self) -> Dict:
        """JSON-serializable form (see :mod:`repro.harness.serialize`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "SimStats":
        return cls(**data)


class RegisterLifetime:
    """One committed-path allocation chain of a physical register.

    Cycles are absolute simulation cycles; ``alloc_seq`` / ``redefine_seq``
    are the *trace* sequence numbers of the allocating and redefining
    instructions, which lets the analysis package join these records with
    the trace-level atomic-region classification.
    """

    __slots__ = (
        "file",
        "ptag",
        "alloc_seq",
        "alloc_cycle",
        "last_consume_cycle",
        "consumer_count",
        "redefine_seq",
        "redefine_cycle",
        "redefiner_precommit_cycle",
        "redefiner_commit_cycle",
        "early_release_cycle",
    )

    def __init__(self, file: RegClass, ptag: int, alloc_seq: int, alloc_cycle: int):
        self.file = file
        self.ptag = ptag
        self.alloc_seq = alloc_seq
        self.alloc_cycle = alloc_cycle
        self.last_consume_cycle: Optional[int] = None
        self.consumer_count = 0
        self.redefine_seq: Optional[int] = None
        self.redefine_cycle: Optional[int] = None
        self.redefiner_precommit_cycle: Optional[int] = None
        self.redefiner_commit_cycle: Optional[int] = None
        self.early_release_cycle: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.redefiner_commit_cycle is not None

    def to_dict(self) -> Dict:
        data = {slot: getattr(self, slot) for slot in self.__slots__}
        data["file"] = self.file.name
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "RegisterLifetime":
        lifetime = cls(RegClass[data["file"]], data["ptag"],
                       data["alloc_seq"], data["alloc_cycle"])
        for slot in cls.__slots__:
            if slot not in ("file", "ptag", "alloc_seq", "alloc_cycle"):
                setattr(lifetime, slot, data[slot])
        return lifetime


class RegisterEventLog(Probe):
    """Collects committed-path :class:`RegisterLifetime` chains.

    Only chains whose allocator *and* redefiner both commit are finalized;
    wrong-path allocations and flushed redefinitions are discarded, which
    matches the paper's committed-register accounting.
    """

    def __init__(self):
        # (file, ptag) -> open lifetime of the current allocation
        self._open: Dict[tuple, RegisterLifetime] = {}
        # redefiner seq -> the chains its rename displaced
        self._pending: Dict[int, List[RegisterLifetime]] = {}
        self.records: List[RegisterLifetime] = []

    def on_allocate(self, entry, cycle: int) -> None:
        if entry.wrong_path:
            # Wrong-path allocations are not tracked; a wrong-path
            # reallocation of an early-released ptag leaves the committed
            # chain (still pending its redefiner's commit) untouched.
            return
        open_chains = self._open
        trace_seq = entry.trace_seq
        for record in entry.dests:
            file = record.file
            open_chains[(file, record.new_ptag)] = RegisterLifetime(
                file, record.new_ptag, trace_seq, cycle)
            # The SRT mapping of prev_ptag was displaced by this entry.
            lifetime = open_chains.get((file, record.prev_ptag))
            if lifetime is not None:
                lifetime.redefine_seq = trace_seq
                lifetime.redefine_cycle = cycle
                self._pending.setdefault(entry.seq, []).append(lifetime)

    def on_issue(self, entry, cycle: int) -> None:
        if entry.wrong_path:
            return
        open_chains = self._open
        for file, _slot, ptag in entry.src_ptags:
            lifetime = open_chains.get((file, ptag))
            if lifetime is not None:
                lifetime.consumer_count += 1
                if lifetime.last_consume_cycle is None or cycle > lifetime.last_consume_cycle:
                    lifetime.last_consume_cycle = cycle

    def on_precommit(self, entry, cycle: int) -> None:
        for lifetime in self._pending.get(entry.seq, ()):
            lifetime.redefiner_precommit_cycle = cycle

    def on_commit(self, entry, cycle: int) -> None:
        for lifetime in self._pending.pop(entry.seq, ()):
            lifetime.redefiner_commit_cycle = cycle
            self.records.append(lifetime)
            key = (lifetime.file, lifetime.ptag)
            # The ptag may have been early released and reallocated to a
            # younger chain already; only close the chain we own.
            if self._open.get(key) is lifetime:
                del self._open[key]

    def on_flush(self, flushed, kind: str, cycle: int) -> None:
        """Un-redefine: the chains stay open for the next redefiner."""
        pending = self._pending
        for entry in flushed:
            for lifetime in pending.pop(entry.seq, ()):
                lifetime.redefine_seq = None
                lifetime.redefine_cycle = None
                lifetime.redefiner_precommit_cycle = None

    def on_early_release(self, file: RegClass, ptag: int, cycle: int) -> None:
        lifetime = self._open.get((file, ptag))
        if lifetime is not None:
            lifetime.early_release_cycle = cycle


class TimelineProbe(Probe):
    """Per-committed-instruction stage cycles.

    ``rows`` holds one ``(trace_seq, pc, rename, issue, complete,
    precommit, commit)`` tuple per committed instruction, in commit
    order.  Flushed instructions leave no row, and neither does one
    renamed before the probe was attached.
    """

    def __init__(self):
        self.rows: List[tuple] = []
        # seq -> [rename, issue, complete, precommit] of a renamed entry
        self._open: Dict[int, List[int]] = {}

    def on_rename(self, entry, cycle: int) -> None:
        self._open[entry.seq] = [cycle, -1, -1, -1]

    def _stamp(self, entry, stage: int, cycle: int) -> None:
        cycles = self._open.get(entry.seq)
        if cycles is not None:
            cycles[stage] = cycle

    def on_issue(self, entry, cycle: int) -> None:
        self._stamp(entry, 1, cycle)

    def on_writeback(self, entry, cycle: int) -> None:
        self._stamp(entry, 2, cycle)

    def on_precommit(self, entry, cycle: int) -> None:
        self._stamp(entry, 3, cycle)

    def on_commit(self, entry, cycle: int) -> None:
        cycles = self._open.pop(entry.seq, None)
        if cycles is not None:
            self.rows.append((entry.trace_seq, entry.pc, *cycles, cycle))

    def on_flush(self, flushed, kind: str, cycle: int) -> None:
        open_rows = self._open
        for entry in flushed:
            open_rows.pop(entry.seq, None)

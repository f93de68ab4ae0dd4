"""Simulation statistics and the register-lifetime event log.

``SimStats`` aggregates everything a run reports (IPC, stall breakdown,
flush counts).  ``RegisterEventLog`` records, per physical-register
allocation on the committed path, the five lifecycle events of paper
section 3.1 — Renamed, Consumed (last consumer executes), Redefined,
Redefiner-Precommitted, Redefiner-Committed — which the analysis package
turns into Figures 4 and 14.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..isa import RegClass


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

    @property
    def total_rename_stalls(self) -> int:
        return (
            self.stall_freelist + self.stall_rob + self.stall_rs
            + self.stall_lq + self.stall_sq
        )

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


class RegisterEventLog:
    """Collects committed-path :class:`RegisterLifetime` chains.

    Only chains whose allocator *and* redefiner both commit are finalized;
    wrong-path allocations and flushed redefinitions are discarded, which
    matches the paper's committed-register accounting.
    """

    def __init__(self):
        # (file, ptag) -> open lifetime of the current allocation
        self._open: Dict[tuple, RegisterLifetime] = {}
        self.records: List[RegisterLifetime] = []

    def on_allocate(self, file: RegClass, ptag: int, seq: int, cycle: int,
                    wrong_path: bool) -> None:
        if wrong_path:
            # Wrong-path allocations are not tracked; a wrong-path
            # reallocation of an early-released ptag leaves the committed
            # chain (still pending its redefiner's commit) untouched.
            return
        self._open[(file, ptag)] = RegisterLifetime(file, ptag, seq, cycle)

    def on_consume(self, file: RegClass, ptag: int, cycle: int) -> None:
        lifetime = self._open.get((file, ptag))
        if lifetime is not None:
            lifetime.consumer_count += 1
            if lifetime.last_consume_cycle is None or cycle > lifetime.last_consume_cycle:
                lifetime.last_consume_cycle = cycle

    def on_redefine(self, file: RegClass, ptag: int, redefiner_entry, cycle: int) -> None:
        """The SRT mapping of *ptag* was displaced by *redefiner_entry*."""
        lifetime = self._open.get((file, ptag))
        if lifetime is None or redefiner_entry.wrong_path:
            return
        lifetime.redefine_seq = redefiner_entry.trace_seq
        lifetime.redefine_cycle = cycle
        redefiner_entry.pending_lifetimes = (
            *redefiner_entry.pending_lifetimes, lifetime)

    def on_redefiner_precommit(self, entry, cycle: int) -> None:
        for lifetime in entry.pending_lifetimes:
            lifetime.redefiner_precommit_cycle = cycle

    def on_redefiner_commit(self, entry, cycle: int) -> None:
        for lifetime in entry.pending_lifetimes:
            lifetime.redefiner_commit_cycle = cycle
            self.records.append(lifetime)
            key = (lifetime.file, lifetime.ptag)
            # The ptag may have been early released and reallocated to a
            # younger chain already; only close the chain we own.
            if self._open.get(key) is lifetime:
                del self._open[key]
        entry.pending_lifetimes = ()

    def on_redefiner_flush(self, entry) -> None:
        """Un-redefine: the chains stay open for the next redefiner."""
        for lifetime in entry.pending_lifetimes:
            lifetime.redefine_seq = None
            lifetime.redefine_cycle = None
            lifetime.redefiner_precommit_cycle = None
        entry.pending_lifetimes = ()

    def on_early_release(self, file: RegClass, ptag: int, cycle: int) -> None:
        lifetime = self._open.get((file, ptag))
        if lifetime is not None:
            lifetime.early_release_cycle = cycle

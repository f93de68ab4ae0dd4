"""Reorder buffer and its entries.

The ROB is the age-ordered spine of the machine: commit pops from the
head, the precommit pointer advances through the middle, and a flush cuts
the tail.  Implemented as a Python list with an explicit head index and
periodic compaction (O(1) amortized for every operation the core
performs per cycle).

A :class:`ROBEntry` is the one record of an in-flight instruction: fetch
builds it, it waits in the fetch queue, rename fills in its rename fields
and appends the same object here, and it leaves at commit or flush.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..branch import Prediction
from ..isa import Instruction


class ROBEntry:
    """One in-flight instruction, from fetch to commit or squash.

    ``seq`` is the dynamic sequence number (age order).  ``trace_seq`` is
    the trace position of a correct-path instruction and -1 on the wrong
    path.  ``pc``, ``instr``, ``next_pc``, ``taken`` and ``mem_addr`` are
    copied from the trace entry (or the wrong-path supplier); the
    committed value is never copied — the core computes its own.
    ``ready_cycle`` is when the entry leaves the frontend pipeline.
    """

    __slots__ = (
        # Fetch
        "seq",
        "trace_seq",
        "pc",
        "instr",
        "next_pc",
        "taken",
        "mem_addr",
        "wrong_path",
        "ready_cycle",
        "prediction",
        "mispredicted",
        # Rename onwards
        "dests",
        "src_ptags",
        "issued",
        "completed",
        "resolved",
        "precommitted",
        "squashed",
        "unready_sources",
        "has_checkpoint",
    )

    def __init__(self, seq: int, trace_seq: int, pc: int, instr: Instruction,
                 next_pc: int, taken: bool = False,
                 mem_addr: Optional[int] = None, wrong_path: bool = False,
                 ready_cycle: int = 0):
        self.seq = seq
        self.trace_seq = trace_seq
        self.pc = pc
        self.instr = instr
        self.next_pc = next_pc
        self.taken = taken
        self.mem_addr = mem_addr
        self.wrong_path = wrong_path
        self.ready_cycle = ready_cycle
        self.prediction: Optional[Prediction] = None
        self.mispredicted = False
        # Rename replaces these with its DestRecord list and its
        # (file_cls, srt_slot, ptag) source triples.
        self.dests = ()
        self.src_ptags = ()
        self.issued = False
        self.completed = False
        self.resolved = not instr.is_control
        self.precommitted = False
        self.squashed = False
        self.unready_sources = 0
        self.has_checkpoint = False

    def __repr__(self) -> str:  # pragma: no cover
        flags = "".join(
            c for c, on in (
                ("W", self.wrong_path), ("I", self.issued), ("C", self.completed),
                ("P", self.precommitted), ("X", self.squashed),
            ) if on
        )
        return f"<ROB#{self.seq} {self.instr.render()} [{flags}]>"


class ReorderBuffer:
    """Age-ordered window of in-flight instructions.

    ``entries[head_index:]`` is the window, oldest first.  Both are public
    so the precommit and commit stages can walk the window by index; the
    list's identity never changes, and :meth:`pop_head` is the one place
    that retires and compacts.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: List[ROBEntry] = []
        self.head_index = 0
        #: Index (relative to head) of the next entry to precommit.
        self.precommit_offset = 0

    def __len__(self) -> int:
        return len(self.entries) - self.head_index

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self)

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity

    def head(self) -> Optional[ROBEntry]:
        if self.head_index < len(self.entries):
            return self.entries[self.head_index]
        return None

    def at_offset(self, offset: int) -> Optional[ROBEntry]:
        """Entry at *offset* from the head (0 = oldest)."""
        index = self.head_index + offset
        if index < len(self.entries):
            return self.entries[index]
        return None

    def append(self, entry: ROBEntry) -> None:
        entries = self.entries
        if len(entries) - self.head_index >= self.capacity:
            raise RuntimeError("ROB overflow; caller must check free_slots")
        entries.append(entry)

    def pop_head(self) -> ROBEntry:
        """Commit the oldest entry."""
        entry = self.entries[self.head_index]
        self.head_index += 1
        if self.precommit_offset > 0:
            self.precommit_offset -= 1
        if self.head_index >= 4096:
            del self.entries[: self.head_index]
            self.head_index = 0
        return entry

    def flush_younger(self, seq: int) -> List[ROBEntry]:
        """Remove every entry younger than *seq*; returns them youngest
        first (the order the tail walk reclaims them in)."""
        entries = self.entries
        flushed: List[ROBEntry] = []
        while len(entries) > self.head_index and entries[-1].seq > seq:
            entry = entries.pop()
            entry.squashed = True
            flushed.append(entry)
        self.precommit_offset = min(self.precommit_offset, len(self))
        return flushed

    def in_flight(self) -> Iterator[ROBEntry]:
        """Oldest -> youngest iteration."""
        entries = self.entries
        for i in range(self.head_index, len(entries)):
            yield entries[i]

"""Speculative Renaming Table (SRT / RAT) and checkpointing.

One table per physical register file.  The integer-file table has 17 slots
(16 GPRs + FLAGS), the vector-file table has 16.  Checkpoints snapshot the
full mapping; recovery either restores a checkpoint taken at the flushing
branch or restores the nearest older checkpoint / walks the ROB backward
re-applying ``previous ptag`` fields (paper section 4.2.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class RegisterAliasTable:
    """Architectural-slot -> ptag mapping for one register file.

    ``mapping`` is the table itself, a list indexed by SRT slot.  Its
    identity never changes (:meth:`restore` writes in place), so the
    rename unit reads and writes it directly on the per-instruction path.
    """

    def __init__(self, slots: int, initial_ptags: Optional[List[int]] = None):
        if initial_ptags is None:
            initial_ptags = list(range(slots))
        if len(initial_ptags) != slots:
            raise ValueError("initial mapping size mismatch")
        self.slots = slots
        self.mapping: List[int] = list(initial_ptags)

    def read(self, slot: int) -> int:
        return self.mapping[slot]

    def write(self, slot: int, ptag: int) -> int:
        """Install *ptag*; returns the previous mapping."""
        prev = self.mapping[slot]
        self.mapping[slot] = ptag
        return prev

    def snapshot(self) -> Tuple[int, ...]:
        return tuple(self.mapping)

    def restore(self, snap: Tuple[int, ...]) -> None:
        if len(snap) != self.slots:
            raise ValueError("snapshot size mismatch")
        self.mapping[:] = snap

    def live_ptags(self) -> Tuple[int, ...]:
        """All ptags currently referenced by an architectural slot."""
        return tuple(self.mapping)

    def __iter__(self):
        return iter(self.mapping)


class CheckpointPool:
    """A bounded pool of SRT checkpoints keyed by branch sequence number.

    Real hardware checkpoints the SRT only on low-confidence branches
    because checkpoint storage is expensive; recovery from an
    un-checkpointed branch restores the nearest older checkpoint and walks
    the ROB forward, which takes extra cycles.  The pool tracks enough to
    model that timing; functional recovery in the simulator always uses
    the ROB walk (provably equivalent), so checkpoints here only carry
    timing information.
    """

    def __init__(self, capacity: int = 8):
        self.capacity = capacity
        # Ordered oldest..youngest: (branch_seq, snapshots tuple)
        self._checkpoints: List[Tuple[int, tuple]] = []
        self.taken = 0
        self.overflowed = 0

    def __len__(self) -> int:
        return len(self._checkpoints)

    def take(self, branch_seq: int, snapshots: tuple) -> bool:
        """Checkpoint at *branch_seq*; returns False if the pool is full."""
        if len(self._checkpoints) >= self.capacity:
            self.overflowed += 1
            return False
        self._checkpoints.append((branch_seq, snapshots))
        self.taken += 1
        return True

    def has_exact(self, branch_seq: int) -> bool:
        return any(seq == branch_seq for seq, _ in self._checkpoints)

    def nearest_older(self, branch_seq: int) -> Optional[Tuple[int, tuple]]:
        """Youngest checkpoint at or older than *branch_seq*."""
        best = None
        for seq, snap in self._checkpoints:
            if seq <= branch_seq and (best is None or seq > best[0]):
                best = (seq, snap)
        return best

    def release_older_equal(self, seq: int) -> int:
        """Free checkpoints for branches at or older than *seq* (they
        resolved); returns how many were released."""
        before = len(self._checkpoints)
        self._checkpoints = [(s, snap) for s, snap in self._checkpoints if s > seq]
        return before - len(self._checkpoints)

    def squash_younger(self, seq: int) -> int:
        """Drop checkpoints younger than *seq* (their branches flushed)."""
        before = len(self._checkpoints)
        self._checkpoints = [(s, snap) for s, snap in self._checkpoints if s <= seq]
        return before - len(self._checkpoints)

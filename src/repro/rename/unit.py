"""The rename unit: per-file free list + SRT + PRT, and the rename step.

``RenameUnit`` owns one :class:`RenameFile` for the scalar-integer file
(16 GPRs + FLAGS) and one for the vector file, matching the paper's split
register file assumption.  It performs the mechanical part of renaming —
source lookup, destination allocation, SRT update, previous-ptag capture —
while the pluggable release scheme (``repro.rename.schemes``) decides when
ptags return to the free list.

Each file's SRT (the speculative renaming table, paper section 4.2.1) is
a plain list indexed by SRT slot: 17 slots in the integer file (16 GPRs +
FLAGS), 16 in the vector file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa import INT_SRT_SLOTS, VEC_SRT_SLOTS, Instruction, RegClass
from .freelist import FreeList
from .physreg import NEVER, PhysRegTable


class DestRecord:
    """Rename metadata for one destination of one in-flight instruction.

    ``prev_ptag`` always holds the SRT mapping this rename displaced and is
    used for SRT recovery on a flush.  ``release_prev`` starts equal to it
    and is *invalidated* (set to ``None``) by a scheme that takes ownership
    of freeing that ptag — the paper's double-free avoidance (section
    4.2.4): each ptag is freed by exactly one mechanism.
    """

    __slots__ = ("file", "slot", "new_ptag", "prev_ptag", "release_prev", "new_epoch")

    def __init__(self, file: RegClass, slot: int, new_ptag: int, prev_ptag: int, new_epoch: int):
        self.file = file
        self.slot = slot
        self.new_ptag = new_ptag
        self.prev_ptag = prev_ptag
        self.release_prev: Optional[int] = prev_ptag
        self.new_epoch = new_epoch

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Dest {self.file.value}[{self.slot}] p{self.new_ptag} "
            f"prev=p{self.prev_ptag} rel={self.release_prev}>"
        )


class RenameFile:
    """One physical register file with its free list, SRT, and PRT."""

    def __init__(self, name: str, arch_slots: int, size: int, counter_bits: int = 3):
        if size < arch_slots + 1:
            raise ValueError(
                f"{name}: physical register file of {size} cannot back {arch_slots} "
                "architectural registers"
            )
        self.name = name
        self.arch_slots = arch_slots
        self.size = size
        self.freelist = FreeList(size)
        # The first arch_slots ptags back the initial architectural state.
        # The list keeps its identity for the file's lifetime.
        self.srt: List[int] = [self.freelist.allocate() for _ in range(arch_slots)]
        self.prt = PhysRegTable(size, counter_bits=counter_bits)


class CheckpointPool:
    """The branches that own an SRT checkpoint, by sequence number.

    Real hardware checkpoints the SRT only on low-confidence branches
    because checkpoint storage is expensive, and a branch that finds the
    pool full goes without.  Recovery at a checkpointed branch takes
    ``checkpoint_recovery_cycles``; any other recovery walks the flushed
    entries.  The simulator always restores the SRT by that walk (the
    two are equivalent), so the pool holds no mappings, only seqs,
    oldest first.
    """

    def __init__(self, capacity: int = 8):
        self.capacity = capacity
        self.seqs: List[int] = []
        self.taken = 0

    def take(self, branch_seq: int) -> bool:
        """Checkpoint at *branch_seq*; returns False if the pool is full."""
        if len(self.seqs) >= self.capacity:
            return False
        self.seqs.append(branch_seq)
        self.taken += 1
        return True

    def has_exact(self, branch_seq: int) -> bool:
        return branch_seq in self.seqs

    def release_older_equal(self, seq: int) -> None:
        """Free checkpoints for branches at or older than *seq* (they
        resolved)."""
        self.seqs = [s for s in self.seqs if s > seq]

    def squash_younger(self, seq: int) -> None:
        """Drop checkpoints younger than *seq* (their branches flushed)."""
        self.seqs = [s for s in self.seqs if s <= seq]


class RenameUnit:
    """Both register files plus the per-instruction rename step."""

    def __init__(
        self,
        int_size: int,
        vec_size: int,
        counter_bits: int = 3,
        reserve: int = 0,
    ):
        """
        Args:
            int_size / vec_size: Physical register count per file.
            counter_bits: PRT consumer counter width.
            reserve: Free-list low-watermark at which rename stalls
                (paper: MAX_DEST x rename width).
        """
        self.files: Dict[RegClass, RenameFile] = {
            RegClass.INT: RenameFile("int", INT_SRT_SLOTS, int_size, counter_bits),
            RegClass.VEC: RenameFile("vec", VEC_SRT_SLOTS, vec_size, counter_bits),
        }
        self.reserve = reserve
        # Per-file SRT lists and free queues, read directly on the
        # per-instruction path; both keep their identity for the unit's
        # lifetime.
        self._srt = {cls: file.srt for cls, file in self.files.items()}
        self._free = {cls: file.freelist.queue for cls, file in self.files.items()}

    def can_rename(self, instr: Instruction) -> bool:
        """True if the free lists are above the stall watermark for the
        destinations *instr* needs."""
        free = self._free
        reserve = self.reserve
        for file_cls, count in instr.dest_counts:
            if len(free[file_cls]) - count < reserve:
                return False
        return True

    def lookup_sources(self, instr: Instruction) -> List[Tuple[RegClass, int, int]]:
        """SRT lookup of every source operand, in operand order.

        Returns (file class, SRT slot, ptag) triples; the slot is needed by
        ATR's two-bit flush walk, which matches sources by architectural
        register.
        """
        srt = self._srt
        sources = []
        for file_cls, slot in instr.src_plan:
            sources.append((file_cls, slot, srt[file_cls][slot]))
        return sources

    def allocate_dests(self, instr: Instruction) -> List[DestRecord]:
        """Allocate a new ptag per destination and update the SRT.

        Caller must have checked :meth:`can_rename`.
        """
        records = []
        files = self.files
        for file_cls, slot in instr.dest_plan:
            file = files[file_cls]
            new_ptag = file.freelist.allocate()
            # PhysRegTable.on_allocate's reset, written out: this runs for
            # every renamed destination.
            e = file.prt.entries[new_ptag]
            e.consumer_count = 0
            e.lifetime_consumers = 0
            e.ner = False
            e.value_ready = False
            e.redefined_visible_cycle = NEVER
            e.early_released = False
            e.epoch += 1
            srt = file.srt
            records.append(DestRecord(file_cls, slot, new_ptag, srt[slot], e.epoch))
            srt[slot] = new_ptag
        return records

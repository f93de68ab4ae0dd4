"""Physical register table (PRT) metadata.

Paper section 4.2.2 extends the PRT with a 3-bit consumer counter per
physical register, reserving the all-ones value as *no-early-release*.
This module models that metadata with two logical pieces:

* ``consumer_count`` — incremented when a consumer renames, decremented
  when a consumer issues.  It saturates into a sticky *overflow* state
  (more consumers than the counter can track), which permanently blocks
  early release of that register.
* ``ner`` (no-early-release) — set by the bulk SRT scan a region-breaking
  instruction triggers at rename.

In the paper's pure-ATR encoding both pieces share the 3-bit field: the
value 7 means "overflowed or bulk-marked", and either condition blocks
early release, so fusing them loses nothing.  When ATR is combined with
non-speculative early release (paper section 4.3) the count must survive
bulk marking — nonspec-ER may still release a bulk-marked register once
its redefiner precommits — so the model keeps ``ner`` as a separate bit
and documents the encoding equivalence here instead of in the scheme code.

``redefined_visible_cycle`` models the pipelined redefinition signal
(paper sections 4.2.2 / 5.5): with an N-stage bulk-marking pipeline the
redefine signal is delayed by N cycles so a ptag never appears redefined
before its no-early-release status is computed.  ``epoch`` is bumped on
every allocation, the software analogue of squashing stale in-flight
signals after a flush reallocates the register.
"""

from __future__ import annotations

from typing import List

#: The value of a cycle field that has never been set.
NEVER = -1


class PhysRegEntry:
    """Metadata for one physical register."""

    __slots__ = (
        "consumer_count",
        "lifetime_consumers",
        "ner",
        "value_ready",
        "redefined_visible_cycle",
        "early_released",
        "epoch",
    )

    def __init__(self):
        self.consumer_count = 0
        self.lifetime_consumers = 0
        self.ner = False
        # True once the producing instruction has written the register.
        # Early release must wait for this: freeing a register whose write
        # is still in flight would let the write clobber the next owner.
        # (Initial architectural mappings are born ready.)
        self.value_ready = True
        self.redefined_visible_cycle = NEVER
        self.early_released = False
        self.epoch = 0


class PhysRegTable:
    """Consumer-count and release metadata for one physical register file.

    Args:
        capacity: Number of physical registers.
        counter_bits: Width of the consumer counter.  The all-ones value
            is the sticky overflow state, so an N-bit counter tracks up to
            ``2**N - 2`` simultaneous consumers (paper: 3 bits track 6).
    """

    def __init__(self, capacity: int, counter_bits: int = 3):
        if counter_bits < 2:
            raise ValueError("counter needs at least 2 bits")
        self.capacity = capacity
        self.counter_bits = counter_bits
        self.overflow = (1 << counter_bits) - 1
        self.entries: List[PhysRegEntry] = [PhysRegEntry() for _ in range(capacity)]

    def on_allocate(self, ptag: int) -> None:
        """Reset metadata when *ptag* is handed out by the free list.

        :meth:`~repro.rename.unit.RenameUnit.allocate_dests` performs the
        same reset in line; a change here must be made there too.
        """
        e = self.entries[ptag]
        e.consumer_count = 0
        e.lifetime_consumers = 0
        e.ner = False
        e.value_ready = False
        e.redefined_visible_cycle = NEVER
        e.early_released = False
        e.epoch += 1

    # -- consumer counting ---------------------------------------------------
    def add_consumer(self, ptag: int) -> None:
        """Rename-time increment; saturates into the sticky overflow state."""
        e = self.entries[ptag]
        e.lifetime_consumers += 1
        if e.consumer_count >= self.overflow - 1:
            e.consumer_count = self.overflow
        else:
            e.consumer_count += 1

    def remove_consumer(self, ptag: int) -> bool:
        """Issue-time decrement (skipped once overflowed).

        Returns True if the count just reached zero.
        """
        e = self.entries[ptag]
        if e.consumer_count == self.overflow or e.consumer_count == 0:
            return False
        e.consumer_count -= 1
        return e.consumer_count == 0

    def undo_consumer(self, ptag: int) -> None:
        """Flush-time decrement for a consumer that never issued.

        Used by schemes that keep counters accurate across flushes
        (nonspec-ER and the combined scheme; pure ATR does not need it —
        paper: "there is no need to restore consumer counts on a flush").
        Skipped once overflowed, since saturated increments are not
        individually recoverable; the register then simply never
        early-releases, which is safe.
        """
        e = self.entries[ptag]
        if e.consumer_count not in (self.overflow, 0):
            e.consumer_count -= 1

    # -- no-early-release marking ------------------------------------------------
    def mark_ner(self, ptag: int) -> None:
        self.entries[ptag].ner = True

    def bulk_no_early_release(self, ptags) -> int:
        """Bulk-set NER on every ptag in *ptags* (the SRT scan triggered by
        renaming a branch or exception-causing instruction).  Returns how
        many were newly marked."""
        changed = 0
        for ptag in ptags:
            e = self.entries[ptag]
            if not e.ner:
                e.ner = True
                changed += 1
        return changed

    # -- writeback ----------------------------------------------------------------
    def mark_written(self, ptag: int) -> None:
        """The producing instruction wrote the register (completion)."""
        self.entries[ptag].value_ready = True

    def is_written(self, ptag: int) -> bool:
        return self.entries[ptag].value_ready

    # -- queries ---------------------------------------------------------------
    def is_no_early_release(self, ptag: int) -> bool:
        """Blocked from ATR release: bulk-marked or counter overflowed."""
        e = self.entries[ptag]
        return e.ner or e.consumer_count == self.overflow

    def consumers(self, ptag: int) -> int:
        return self.entries[ptag].consumer_count

    def epoch(self, ptag: int) -> int:
        return self.entries[ptag].epoch

    def mark_redefined(self, ptag: int, visible_cycle: int) -> None:
        self.entries[ptag].redefined_visible_cycle = visible_cycle

    def redefined_visible(self, ptag: int, cycle: int) -> bool:
        visible = self.entries[ptag].redefined_visible_cycle
        return visible != NEVER and visible <= cycle

    def is_redefined(self, ptag: int) -> bool:
        return self.entries[ptag].redefined_visible_cycle != NEVER

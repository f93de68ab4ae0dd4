"""ATomic register Release — the paper's core contribution (section 4).

ATR releases a physical register *out of order*, while older branches are
still unresolved, when three conditions hold:

1. the register was allocated inside an **atomic commit region** — no
   conditional branch, indirect jump, or exception-causing instruction was
   renamed between its allocating and redefining instructions (tracked by
   the bulk no-early-release marking below);
2. it has been **redefined** (and the pipelined redefinition signal has
   become visible, modeling the N-stage bulk-marking logic);
3. its **consumer count is zero** — every renamed consumer has issued.

Safety comes from atomicity: producer, consumers, and redefiner commit or
flush as a group, so no new consumer of the released register can ever be
renamed, even after a misprediction (paper section 4.1).

Mechanisms implemented exactly as described:

* **Bulk no-early-release** (4.2.2): when a region-breaking instruction is
  renamed, every ptag currently referenced by the SRT (both register
  files) is marked no-early-release.  Instructions renamed earlier in the
  same cycle have already updated the SRT, so superscalar ordering is
  preserved; the breaking instruction's own destination is allocated
  *after* the scan and is therefore not marked (a region may begin with
  the breaker itself).
* **Pipelined redefinition delay** (4.2.2 / 5.5): the redefined signal
  becomes visible ``redefine_delay`` cycles after rename.
* **Double-free avoidance at commit** (4.2.4): claiming a prev ptag
  invalidates the instruction's ``release_prev`` so the commit logic
  never frees it.
* **Double-free avoidance on flush** (4.2.4): the two-bits-per-
  architectural-register walk.  The paper sketches the walk in ROB order;
  this implementation walks the flushed region youngest -> oldest (the
  direction the baseline tail walk already uses) with the per-entry step
  order (check-free, set-bits-if-claimed, clear-consumed-for-unissued-
  sources) that makes the chain bookkeeping consistent in that direction.
  A debug oracle (allocation-epoch based) cross-checks every free/skip
  decision when ``debug_checks`` is enabled.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from ...isa import RegClass
from .tracking import ConsumerTrackingScheme


class AtrScheme(ConsumerTrackingScheme):
    """Out-of-order register release exploiting atomic regions."""

    name = "atr"

    def __init__(self, redefine_delay: int = 0, debug_checks: bool = True,
                 restore_counts_on_flush: bool = False):
        super().__init__(restore_counts_on_flush=restore_counts_on_flush)
        if redefine_delay < 0:
            raise ValueError("redefine_delay must be >= 0")
        self.redefine_delay = redefine_delay
        self.debug_checks = debug_checks
        # In-flight pipelined redefinition signals:
        # (visible_cycle, file_cls, ptag, epoch_at_claim)
        self._pending: Deque[Tuple[int, RegClass, int, int]] = deque()

    # -- per-cycle -----------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Deliver redefinition signals whose pipeline delay has elapsed."""
        while self._pending and self._pending[0][0] <= cycle:
            _, file_cls, ptag, epoch = self._pending.popleft()
            self._try_delayed_release(file_cls, ptag, epoch)

    def next_pending_cycle(self):
        """Visibility cycle of the oldest in-flight redefinition signal
        (the deque is appended in rename order with a constant delay, so
        the head is always the earliest)."""
        return self._pending[0][0] if self._pending else None

    def _try_delayed_release(self, file_cls: RegClass, ptag: int, epoch: int) -> None:
        file = self.unit.files[file_cls]
        e = file.prt.entries[ptag]
        if e.epoch != epoch or e.early_released or file.freelist.is_free(ptag):
            self.stats.pending_squashed += 1
            return
        if e.consumer_count == 0 and e.value_ready:
            self._atr_release(file_cls, ptag)

    # -- rename ------------------------------------------------------------------------
    def pre_rename(self, entry, cycle: int) -> None:
        super().pre_rename(entry, cycle)  # consumer increments
        if entry.instr.breaks_atomic_region:
            self._bulk_mark()

    def _bulk_mark(self) -> None:
        """Mark every current SRT mapping in both files no-early-release."""
        self.stats.bulk_mark_events += 1
        for file in self.unit.files.values():
            self.stats.bulk_marked_ptags += file.prt.bulk_no_early_release(
                file.srt
            )

    def post_rename(self, entry, cycle: int) -> None:
        for record in entry.dests:
            ptag = record.release_prev
            if ptag is None:
                continue
            file = self.unit.files[record.file]
            if file.prt.is_no_early_release(ptag):
                self._not_claimed(entry, record, cycle)
                continue
            # Claim: from here on only ATR may free this ptag.
            record.release_prev = None
            self.stats.atr_claims += 1
            self.stats.record_claim_consumers(file.prt.entries[ptag].lifetime_consumers)
            self._notify_claim(record.file, ptag)
            visible = cycle + self.redefine_delay
            file.prt.mark_redefined(ptag, visible)
            if self.redefine_delay == 0:
                e = file.prt.entries[ptag]
                if e.consumer_count == 0 and e.value_ready:
                    self._atr_release(record.file, ptag)
            else:
                self._pending.append(
                    (visible, record.file, ptag, file.prt.epoch(ptag))
                )

    def _not_claimed(self, entry, record, cycle: int) -> None:
        """A previous ptag ATR cannot claim; the combined scheme hands it
        to non-speculative release (:class:`~.nonspec.NonSpecRelease`)."""

    # -- release triggers -----------------------------------------------------------------
    def _count_reached_zero(self, file_cls: RegClass, ptag: int, cycle: int) -> None:
        file = self.unit.files[file_cls]
        e = file.prt.entries[ptag]
        if file.prt.redefined_visible(ptag, cycle) and e.value_ready and not e.early_released:
            self._atr_release(file_cls, ptag)

    def on_writeback(self, file_cls: RegClass, ptag: int, cycle: int) -> None:
        file = self.unit.files[file_cls]
        e = file.prt.entries[ptag]
        if (
            file.prt.redefined_visible(ptag, cycle)
            and e.consumer_count == 0
            and not e.early_released
        ):
            self._atr_release(file_cls, ptag)

    def _atr_release(self, file_cls: RegClass, ptag: int) -> None:
        file = self.unit.files[file_cls]
        file.prt.entries[ptag].early_released = True
        file.freelist.free(ptag)
        self.stats.atr_frees += 1
        self._notify_release(file_cls, ptag)

    # -- flush ---------------------------------------------------------------------------------
    def on_flush(self, flushed: List, cycle: int) -> None:
        self.stats.flush_walks += 1
        # Order matters: the in-flight redefinition signals complete
        # BEFORE recovery mutates any state.  Undoing the rename-time
        # increments of never-issued consumers first would let the drain
        # release a register the two-bit walk still (correctly) believes
        # unreleased — its consumers never issued — and double-free it.
        self._drain_pending(cycle)
        if self.restore_counts_on_flush:
            for entry in flushed:
                if not entry.issued:
                    for file_cls, _slot, ptag in entry.src_ptags:
                        self.unit.files[file_cls].prt.undo_consumer(ptag)
        self._flush_walk(flushed, cycle)

    def _drain_pending(self, cycle: int) -> None:
        """Complete all in-flight redefinition signals before the walk.

        The bulk-marking pipeline is short (<= 2 stages) while a flush
        walk takes many cycles, so the hardware drains these signals
        before reclamation frees anything; modeling that removes any
        release/walk race.  Signals whose ptag was reallocated since the
        claim are stale and squashed.
        """
        while self._pending:
            _, file_cls, ptag, epoch = self._pending.popleft()
            file = self.unit.files[file_cls]
            e = file.prt.entries[ptag]
            if e.epoch != epoch:
                self.stats.pending_squashed += 1
                continue
            file.prt.mark_redefined(ptag, cycle)
            self._try_delayed_release(file_cls, ptag, epoch)

    def _flush_walk(self, flushed: List, cycle: int) -> None:
        """The paper's two-bit-per-architectural-register flush walk."""
        redefined = {
            file_cls: [False] * file.arch_slots
            for file_cls, file in self.unit.files.items()
        }
        consumed = {
            file_cls: [False] * file.arch_slots
            for file_cls, file in self.unit.files.items()
        }
        for entry in flushed:  # youngest -> oldest
            for record in entry.dests:
                file = self.unit.files[record.file]
                r_bits = redefined[record.file]
                c_bits = consumed[record.file]
                slot = record.slot
                # A claimed ptag is only actually released once all its
                # consumers issued (the bits) AND its producer wrote back
                # (this entry's completed flag): both gate the release.
                already_released = r_bits[slot] and c_bits[slot] and entry.completed
                if self.debug_checks:
                    self._check_walk_decision(file, record, already_released)
                if not already_released:
                    file.freelist.free(record.new_ptag)
                    self.stats.flush_frees += 1
                r_bits[slot] = False
                c_bits[slot] = False
                if record.release_prev is None:  # ATR-claimed its prev ptag
                    r_bits[slot] = True
                    c_bits[slot] = True
            if not entry.issued:
                for file_cls, slot, _ptag in entry.src_ptags:
                    if redefined[file_cls][slot]:
                        consumed[file_cls][slot] = False
        if self.debug_checks:
            for file_cls, bits in redefined.items():
                if any(bits):
                    raise AssertionError(
                        f"flush walk left redefined bits set in {file_cls}: "
                        f"{[i for i, b in enumerate(bits) if b]}"
                    )

    def _check_walk_decision(self, file, record, already_released: bool) -> None:
        """Cross-check the 2-bit decision against the allocation-epoch oracle."""
        e = file.prt.entries[record.new_ptag]
        oracle = e.epoch != record.new_epoch or e.early_released
        if oracle != already_released:
            raise AssertionError(
                f"flush-walk divergence on p{record.new_ptag}: "
                f"bits say released={already_released}, oracle says {oracle} "
                f"(epoch {e.epoch} vs {record.new_epoch}, early={e.early_released})"
            )

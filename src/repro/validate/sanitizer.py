"""Online invariant sanitizer for the cycle core.

The golden-model equivalence test catches an unsafe early release only if
the corrupted value survives into the *final* architectural state; the
conservation check only fires at end of run.  This checker enforces the
safety argument *per event*, the way RegionTrack-style online monitors
do, so the first bad transition fails the run at the cycle it happens,
with the register, the instruction, and a ring buffer of recent pipeline
events attached.

Enforced invariants:

* **Use-after-release** (the ATR property): no instruction may rename a
  consumer of, issue a read of, or write back to a physical register
  that is on the free list — or that was reallocated (epoch changed)
  between rename and the access.
* **Consumer-count non-negativity**: a consumer-tracking scheme never
  decrements a zero counter (the PRT clamps silently; the sanitizer
  makes it loud).
* **Free-list conservation at every ROB-empty point**, not just at end
  of run.
* **Occupancy bounds**: RS/LQ/SQ usage stays within ``[0, size]`` every
  cycle.
* **Precommit-pointer monotonicity**: instructions precommit in age
  order, and a flush never squashes a precommitted instruction (the
  boundary interrupt flushes rely on).

The checker is a :class:`~repro.pipeline.probes.Probe` over the public
:class:`~repro.pipeline.state.PipelineState`; it is attached by
``CoreConfig.check_invariants=True`` (or ``core.add_probe``) and costs
nothing when detached — an unprobed core pays a single ``is None`` test
per emission site.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..pipeline.probes import Probe
from ..rename.errors import RenameError
from ..rename.schemes.tracking import ConsumerTrackingScheme
from .snapshot import format_snapshot, pipeline_snapshot

#: Default depth of the recent-event ring buffer.
RING_SIZE = 48


class InvariantViolation(RenameError):
    """A pipeline invariant failed; carries full diagnostic context.

    Attributes:
        kind: Machine-readable violation slug (``use-after-release``, …).
        cycle: Simulation cycle of the violating event.
        seq: Dynamic sequence number of the violating instruction (or -1).
        file: Register-file name (``int`` / ``vec``) when register-related.
        ptag: Offending physical register when register-related.
        snapshot: :func:`~repro.validate.snapshot.pipeline_snapshot` dict,
            including the recent-event ring.
    """

    def __init__(self, kind: str, message: str, cycle: int, seq: int = -1,
                 file: Optional[str] = None, ptag: Optional[int] = None,
                 snapshot: Optional[Dict] = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.cycle = cycle
        self.seq = seq
        self.file = file
        self.ptag = ptag
        self.snapshot = snapshot

    def __str__(self) -> str:
        where = f" [{self.file} p{self.ptag}]" if self.ptag is not None else ""
        text = (f"invariant violation ({self.kind}) at cycle {self.cycle}, "
                f"seq {self.seq}{where}: {self.message}")
        if self.snapshot is not None:
            text += "\n" + format_snapshot(self.snapshot)
        return text


class EventRing:
    """Bounded ring of recent pipeline events, for violation reports."""

    def __init__(self, size: int = RING_SIZE):
        self._events: Deque[Tuple[int, str]] = deque(maxlen=size)

    def record(self, cycle: int, text: str) -> None:
        self._events.append((cycle, text))

    def formatted(self) -> List[str]:
        return [f"c{cycle:<6} {text}" for cycle, text in self._events]

    def __len__(self) -> int:
        return len(self._events)


class InvariantChecker(Probe):
    """Per-event invariant enforcement over one core's run.

    Accepts a :class:`~repro.pipeline.state.PipelineState` or a
    :class:`~repro.pipeline.core.Core` (its state is used).
    """

    def __init__(self, state, ring_size: int = RING_SIZE):
        self.state = getattr(state, "state", state)
        self.ring = EventRing(ring_size)
        self.checked_events = 0
        #: seq -> PRT epochs of every source ptag, captured at rename.
        self._src_epochs: Dict[int, Tuple[int, ...]] = {}
        self._last_precommit_seq = -1
        self._last_commit_seq = -1
        self._rob_was_occupied = False
        self._tracks_consumers = isinstance(self.state.scheme,
                                            ConsumerTrackingScheme)

    # -- failure -----------------------------------------------------------------
    def _fail(self, kind: str, message: str, seq: int = -1,
              file_cls=None, ptag: Optional[int] = None) -> None:
        raise InvariantViolation(
            kind=kind,
            message=message,
            cycle=self.state.cycle,
            seq=seq,
            file=file_cls.value if file_cls is not None else None,
            ptag=ptag,
            snapshot=pipeline_snapshot(self.state),
        )

    # -- rename ------------------------------------------------------------------
    def on_rename_sources(self, entry, cycle: int) -> None:
        """After SRT lookup, before destination allocation: every source
        mapping must be a live (allocated) physical register."""
        self.checked_events += 1
        files = self.state.rename_unit.files
        epochs = []
        for file_cls, _slot, ptag in entry.src_ptags:
            file = files[file_cls]
            if file.freelist.is_free(ptag):
                released = file.prt.entries[ptag].early_released
                self._fail(
                    "use-after-release",
                    f"renamed a consumer of {file_cls.value} p{ptag}, which "
                    f"is on the free list"
                    f"{' (early released)' if released else ''} — "
                    f"instruction #{entry.seq} {entry.instr.opcode.name} "
                    f"pc={entry.pc}",
                    seq=entry.seq, file_cls=file_cls, ptag=ptag)
            epochs.append(file.prt.epoch(ptag))
        self._src_epochs[entry.seq] = tuple(epochs)

    def on_rename(self, entry, cycle: int) -> None:
        """After the full rename step: destinations must be live."""
        files = self.state.rename_unit.files
        for record in entry.dests:
            if files[record.file].freelist.is_free(record.new_ptag):
                self._fail(
                    "allocation-corrupt",
                    f"freshly allocated {record.file.value} p{record.new_ptag} "
                    f"is still on the free list",
                    seq=entry.seq, file_cls=record.file, ptag=record.new_ptag)
        wp = " WP" if entry.wrong_path else ""
        self.ring.record(cycle,
                         f"rename #{entry.seq} {entry.instr.opcode.name}{wp}")

    # -- issue -------------------------------------------------------------------
    def on_issue(self, entry, cycle: int) -> None:
        """Fires before the scheme's issue hook: sources are about to be
        read, consumer counts not yet decremented."""
        self.checked_events += 1
        files = self.state.rename_unit.files
        epochs = self._src_epochs.pop(entry.seq, None)
        for index, (file_cls, _slot, ptag) in enumerate(entry.src_ptags):
            file = files[file_cls]
            if self._tracks_consumers and not entry.wrong_path:
                e = file.prt.entries[ptag]
                if e.consumer_count == 0:
                    self._fail(
                        "consumer-underflow",
                        f"issue of #{entry.seq} {entry.instr.opcode.name} "
                        f"would decrement the zero consumer count of "
                        f"{file_cls.value} p{ptag}",
                        seq=entry.seq, file_cls=file_cls, ptag=ptag)
            if entry.wrong_path:
                continue  # wrong-path reads of garbage are architecturally moot
            if file.freelist.is_free(ptag):
                self._fail(
                    "use-after-release",
                    f"instruction #{entry.seq} {entry.instr.opcode.name} "
                    f"pc={entry.pc} read {file_cls.value} p{ptag} while "
                    f"it is on the free list",
                    seq=entry.seq, file_cls=file_cls, ptag=ptag)
            if epochs is not None and file.prt.epoch(ptag) != epochs[index]:
                self._fail(
                    "use-after-release",
                    f"instruction #{entry.seq} {entry.instr.opcode.name} "
                    f"pc={entry.pc} read {file_cls.value} p{ptag} after "
                    f"it was released and reallocated (epoch "
                    f"{epochs[index]} -> {file.prt.epoch(ptag)})",
                    seq=entry.seq, file_cls=file_cls, ptag=ptag)
        self.ring.record(cycle, f"issue #{entry.seq}")

    # -- writeback ---------------------------------------------------------------
    def on_writeback(self, entry, cycle: int) -> None:
        self.checked_events += 1
        files = self.state.rename_unit.files
        for record in entry.dests:
            file = files[record.file]
            if file.freelist.is_free(record.new_ptag):
                self._fail(
                    "use-after-release",
                    f"instruction #{entry.seq} wrote back to "
                    f"{record.file.value} p{record.new_ptag} while it is on "
                    f"the free list (released before its value was ready)",
                    seq=entry.seq, file_cls=record.file, ptag=record.new_ptag)
            if file.prt.epoch(record.new_ptag) != record.new_epoch:
                self._fail(
                    "use-after-release",
                    f"instruction #{entry.seq} wrote back to "
                    f"{record.file.value} p{record.new_ptag} after it was "
                    f"released and reallocated",
                    seq=entry.seq, file_cls=record.file, ptag=record.new_ptag)
        self.ring.record(cycle, f"writeback #{entry.seq}")

    # -- precommit / commit ------------------------------------------------------
    def on_precommit(self, entry, cycle: int) -> None:
        self.checked_events += 1
        if entry.seq <= self._last_precommit_seq:
            self._fail(
                "precommit-order",
                f"precommit pointer moved backwards: #{entry.seq} after "
                f"#{self._last_precommit_seq}",
                seq=entry.seq)
        self._last_precommit_seq = entry.seq
        self.ring.record(cycle, f"precommit #{entry.seq}")

    def on_commit(self, entry, cycle: int) -> None:
        self.checked_events += 1
        if entry.seq <= self._last_commit_seq:
            self._fail(
                "commit-order",
                f"commit out of age order: #{entry.seq} after "
                f"#{self._last_commit_seq}",
                seq=entry.seq)
        self._last_commit_seq = entry.seq
        self._src_epochs.pop(entry.seq, None)
        self.ring.record(cycle,
                         f"commit #{entry.seq} {entry.instr.opcode.name}")

    # -- flush -------------------------------------------------------------------
    def on_flush(self, flushed, kind: str, cycle: int) -> None:
        self.checked_events += 1
        for entry in flushed:
            if entry.precommitted:
                self._fail(
                    "flush-past-precommit",
                    f"{kind} flush squashed precommitted instruction "
                    f"#{entry.seq} {entry.instr.opcode.name} — the precommit "
                    f"boundary guarantees it would commit",
                    seq=entry.seq)
            self._src_epochs.pop(entry.seq, None)
        self.ring.record(cycle,
                         f"{kind}-flush squashed {len(flushed)}")

    # -- releases ----------------------------------------------------------------
    def on_early_release(self, file_cls, ptag: int, cycle: int) -> None:
        self.ring.record(cycle, f"early-release {file_cls.value} p{ptag}")

    # -- per-cycle ---------------------------------------------------------------
    def on_cycle_end(self, cycle: int) -> None:
        state = self.state
        config = state.config
        if not 0 <= state.rs_used <= config.rs_size:
            self._fail("occupancy", f"RS occupancy {state.rs_used} outside "
                                    f"[0, {config.rs_size}]")
        if not 0 <= state.lq_used <= config.lq_size:
            self._fail("occupancy", f"LQ occupancy {state.lq_used} outside "
                                    f"[0, {config.lq_size}]")
        if not 0 <= state.sq_used <= config.sq_size:
            self._fail("occupancy", f"SQ occupancy {state.sq_used} outside "
                                    f"[0, {config.sq_size}]")
        rob_len = len(state.rob)
        if not 0 <= state.rob.precommit_offset <= rob_len:
            self._fail("precommit-order",
                       f"precommit offset {state.rob.precommit_offset} outside "
                       f"ROB occupancy {rob_len}")
        if rob_len == 0:
            if self._rob_was_occupied:
                self._rob_was_occupied = False
                self.check_conservation()
        else:
            self._rob_was_occupied = True

    def check_conservation(self) -> None:
        """Free-list conservation, converted to a structured violation."""
        try:
            self.state.check_conservation()
        except AssertionError as exc:
            self._fail("conservation",
                       f"free-list conservation failed at ROB-empty point: "
                       f"{exc}")

"""Interrupt handling (paper section 4.1, "Interrupts").

Two service policies:

* ``drain`` — stop fetching and let the ROB empty, then service.  Works
  unchanged with ATR (the paper's option (a)).
* ``flush`` — squash every instruction past the precommit pointer and
  service once the precommitted prefix drains, for lower interrupt
  latency (the paper's option (b)).  With ATR this is only safe while no
  claim crosses that boundary: an instruction past the pointer that
  claimed a register allocated at or before it may already have
  released that register, and squashing the claimer would map the
  register again while its ptag sits on the free list.  The paper's fix
  is a commit-stage counter of open atomic regions: keep committing
  until the counter reaches zero, then flush.  In the worst case this
  drains the whole ROB, which is still correct — no ISA bounds
  interrupt service time.

The simulator checks the condition that counter stands for directly, in
every cycle an interrupt waits: no entry past the precommit pointer
holds an ATR claim on a ptag allocated at or before the pointer.  A
claim is a destination record whose ``release_prev`` is ``None``;
non-speculative release takes ownership only at precommit, so past the
pointer only ATR clears it.  A claim whose allocator is also past the
pointer is squashed with it, as in a branch flush.  A counter opened
for every claimable destination and closed at its redefiner's commit
cannot stand in for the check: it stays above zero while any committed
register is still claimable, so it would hold every flush off until the
ROB had emptied.  A claim that did cross the boundary trips the end of
ATR's flush walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class InterruptStats:
    """Per-run interrupt accounting."""

    serviced: int = 0
    flushed_instructions: int = 0
    wait_cycles: int = 0  # pending -> service start
    service_cycles_total: int = 0


class InterruptController:
    """Injects and services interrupts for a :class:`~repro.pipeline.Core`.

    Usage::

        core = Core(config, trace)
        controller = InterruptController(core, policy="flush")
        controller.schedule(at_cycle=1000)
        core.run()

    The controller hooks the core's per-cycle step; the core exposes the
    commit and flush primitives it needs.
    """

    def __init__(self, core, policy: str = "drain", service_cycles: int = 60):
        if policy not in ("drain", "flush"):
            raise ValueError(f"unknown interrupt policy {policy!r}")
        self.core = core
        self.policy = policy
        self.service_cycles = service_cycles
        self.stats = InterruptStats()
        self._pending_at: List[int] = []
        self._pending = False
        self._pending_since = 0
        self._servicing_until: Optional[int] = None
        self._flush_done = False
        core.attach_interrupt_controller(self)

    # -- injection ----------------------------------------------------------
    def schedule(self, at_cycle: int) -> None:
        """Raise an interrupt at *at_cycle* (may schedule several)."""
        self._pending_at.append(at_cycle)
        self._pending_at.sort()

    # -- per-cycle hook -----------------------------------------------------------
    def tick(self, cycle: int) -> bool:
        """Advance interrupt state; returns True while fetch must stall."""
        if self._servicing_until is not None:
            if cycle < self._servicing_until:
                return True
            self._servicing_until = None
            return False

        if not self._pending and self._pending_at and cycle >= self._pending_at[0]:
            self._pending_at.pop(0)
            self._pending = True
            self._pending_since = cycle

        if not self._pending:
            return False

        # An interrupt is pending: fetch stops under both policies.
        if self.policy == "drain":
            if len(self.core.rob) == 0:
                self._service(cycle)
            return True

        # flush policy: wait while an ATR claim crosses the precommit
        # boundary, then squash everything past it.
        if not self._flush_done and not self._claim_crosses_boundary():
            self.stats.flushed_instructions += self.core.interrupt_flush(cycle)
            self._flush_done = True
        if self._flush_done and len(self.core.rob) == 0:
            # the precommitted prefix has drained; service now
            self._flush_done = False
            self._service(cycle)
        return True

    def _claim_crosses_boundary(self) -> bool:
        """True while an entry past the precommit pointer holds an ATR
        claim on a ptag allocated at or before the pointer."""
        rob = self.core.rob
        entries = rob.entries
        allocated = set()  # (file, ptag) allocated past the pointer
        for index in range(rob.head_index + rob.precommit_offset, len(entries)):
            for record in entries[index].dests:
                if (record.release_prev is None
                        and (record.file, record.prev_ptag) not in allocated):
                    return True
                allocated.add((record.file, record.new_ptag))
        return False

    def _service(self, cycle: int) -> None:
        self._pending = False
        self.stats.serviced += 1
        self.stats.wait_cycles += cycle - self._pending_since
        self.stats.service_cycles_total += self.service_cycles
        self._servicing_until = cycle + self.service_cycles

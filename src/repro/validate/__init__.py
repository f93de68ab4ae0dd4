"""repro.validate — online invariant sanitizer, seeded fault injection,
and crash diagnostics.

End-of-run golden-state diffs only catch a bad early release when the
corruption survives to the end; this package checks the ATR safety
property *while it can still be violated*:

* **sanitizer** (:mod:`.sanitizer`): per-event invariant checker hooked
  into the cycle core via ``CoreConfig.check_invariants`` — use-after-
  release, consumer-count underflow, conservation at ROB-empty points,
  occupancy bounds, precommit monotonicity.  Violations are structured
  :class:`InvariantViolation` s carrying a pipeline snapshot and a ring
  buffer of recent events.
* **snapshot** (:mod:`.snapshot`): the diagnostic state dump attached to
  violations and ``DeadlockError``.
* **chaos** (:mod:`.chaos`): deterministic seeded timing-fault injection
  (latency jitter, forced mispredicts, forced interrupts, free-list
  pressure) with differential verification against the golden emulator.
* **campaign** (:mod:`.campaign`): multi-seed chaos grids through the
  parallel harness; drives the ``repro validate`` CLI command.
"""

from .campaign import CampaignReport, campaign_specs, run_campaign
from .chaos import (
    INTENSITIES,
    ChaosCore,
    ChaosSpec,
    chaos_config,
    execute_chaos_spec,
    run_chaos_cell,
)
from .sanitizer import EventRing, InvariantChecker, InvariantViolation
from .snapshot import format_snapshot, pipeline_snapshot

__all__ = [
    "InvariantChecker", "InvariantViolation", "EventRing",
    "pipeline_snapshot", "format_snapshot",
    "ChaosSpec", "ChaosCore", "chaos_config", "run_chaos_cell",
    "execute_chaos_spec", "INTENSITIES",
    "campaign_specs", "run_campaign", "CampaignReport",
]

"""Release scheme interface.

A release scheme decides *when a physical register returns to the free
list*.  The pipeline invokes the hooks below at well-defined points; the
scheme is the only component allowed to call ``freelist.free`` (outside of
test fixtures), which is what makes the free-list conservation checking
meaningful.

Hook call order, per simulated cycle:

1. ``tick(cycle)`` — once, before any instruction processing (delayed
   redefinition signals become visible here).
2. ``on_writeback(file, ptag, cycle)`` — per destination written back
   this cycle.
3. ``on_precommit(entry, cycle)`` — per instruction passing the precommit
   pointer this cycle, in order.
4. ``on_commit(entry, cycle)`` — per committing instruction, in order.
5. ``on_issue(entry, cycle)`` — per issuing instruction (sources read).
6. ``pre_rename(entry, cycle)`` / ``post_rename(entry, cycle)`` — per
   renaming instruction, in program order within the cycle.  ``pre`` runs
   after source lookup but *before* destination allocation; ``post`` runs
   after the SRT has been updated.

``on_flush(flushed, cycle)`` runs on a pipeline flush (a mispredicted
branch resolving at writeback, or an interrupt), with the flushed
entries ordered youngest first (tail -> flush point); the SRT has
already been restored when this is called.

Stages bind the hooks once, when the core is built (:func:`bound_hook`):
a per-instruction hook that the scheme's class inherits as the base
no-op is never called, while one set on the scheme instance before the
core is built always is.

Entries are the core's :class:`~repro.pipeline.rob.ROBEntry` records.
From fetch they carry ``seq``, ``trace_seq`` (-1 on the wrong path),
``pc``, ``instr``, ``next_pc``, ``taken``, ``mem_addr`` and
``wrong_path``; rename adds ``src_ptags`` ((file, SRT slot, ptag)
triples, in operand order) and ``dests`` (:class:`DestRecord` list);
``issued``, ``completed``, ``precommitted`` and ``squashed`` track the
entry's progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List

from ...isa import RegClass
from ..unit import RenameUnit


@dataclass
class SchemeStats:
    """Release accounting, the raw material of every figure."""

    commit_frees: int = 0
    flush_frees: int = 0
    atr_frees: int = 0
    nonspec_frees: int = 0
    atr_claims: int = 0
    bulk_mark_events: int = 0
    bulk_marked_ptags: int = 0
    flush_walks: int = 0
    pending_squashed: int = 0
    #: Histogram of lifetime consumer counts of ATR-claimed ptags (Fig 12).
    claim_consumers: Dict[int, int] = field(default_factory=dict)

    @property
    def early_frees(self) -> int:
        return self.atr_frees + self.nonspec_frees

    @property
    def total_frees(self) -> int:
        return self.commit_frees + self.flush_frees + self.early_frees

    def record_claim_consumers(self, count: int) -> None:
        self.claim_consumers[count] = self.claim_consumers.get(count, 0) + 1

    def to_dict(self) -> Dict:
        """JSON-serializable form; histogram keys become strings in JSON,
        so :meth:`from_dict` converts them back to ints."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["claim_consumers"] = dict(self.claim_consumers)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "SchemeStats":
        data = dict(data)
        data["claim_consumers"] = {
            int(k): v for k, v in data.get("claim_consumers", {}).items()
        }
        return cls(**data)


#: Per-instruction hooks whose :class:`ReleaseScheme` implementation
#: does nothing.
NO_OP_HOOKS = frozenset(("pre_rename", "post_rename", "on_issue",
                         "on_writeback", "on_precommit"))


def bound_hook(scheme: "ReleaseScheme", name: str):
    """``scheme.<name>``, bound once, or ``None`` when calling it would
    run the base class's no-op.

    A hook set on the instance (as a tracer or test wrapper does) is
    always returned, whatever the class implements.
    """
    if (name in NO_OP_HOOKS and name not in vars(scheme)
            and getattr(type(scheme), name) is getattr(ReleaseScheme, name)):
        return None
    return getattr(scheme, name)


class ReleaseScheme:
    """Base scheme: owns no policy, provides shared plumbing."""

    name = "abstract"

    def __init__(self):
        self.stats = SchemeStats()
        self.unit: RenameUnit = None  # type: ignore[assignment]
        #: Callback(file_cls, ptag) fired on every *early* release.  The
        #: core sets it to its probe dispatcher while a probe subscribes to
        #: ``early_release`` (the register-event log, the sanitizer, the
        #: static oracles), and to None otherwise.
        self.release_listener = None
        #: Callback(file_cls, ptag) fired when an atomic-region scheme
        #: claims a previous ptag (ATR takes ownership of the free); set
        #: by the core the same way, for ``claim`` subscribers.
        self.claim_listener = None

    def attach(self, unit: RenameUnit) -> None:
        self.unit = unit

    def _notify_release(self, file_cls, ptag: int) -> None:
        if self.release_listener is not None:
            self.release_listener(file_cls, ptag)

    def _notify_claim(self, file_cls, ptag: int) -> None:
        if self.claim_listener is not None:
            self.claim_listener(file_cls, ptag)

    # -- hooks (default: no-ops) ------------------------------------------------
    # bound_hook skips the per-instruction ones listed in NO_OP_HOOKS when a
    # scheme inherits them: give one a body here and drop it from that set.
    def tick(self, cycle: int) -> None:
        pass

    def next_pending_cycle(self) -> "int | None":
        """Earliest future cycle at which :meth:`tick` has queued work, or
        ``None`` when the scheme holds no time-delayed state.

        The core's skip-ahead fast path uses this to bound how far the
        cycle counter may jump without a tick observing anything; schemes
        with pipelined (delayed) signals must override it.
        """
        return None

    def pre_rename(self, entry, cycle: int) -> None:
        pass

    def post_rename(self, entry, cycle: int) -> None:
        pass

    def on_issue(self, entry, cycle: int) -> None:
        pass

    def on_writeback(self, file_cls, ptag: int, cycle: int) -> None:
        """The producer of *ptag* wrote the register file.

        Early-release schemes gate releases on this: a register whose
        write is still in flight cannot be handed to a new owner.
        """

    def on_precommit(self, entry, cycle: int) -> None:
        pass

    def on_commit(self, entry, cycle: int) -> None:
        """Default conventional release: free every still-owned prev ptag."""
        for record in entry.dests:
            if record.release_prev is not None:
                self.unit.files[record.file].freelist.free(record.release_prev)
                record.release_prev = None
                self.stats.commit_frees += 1

    def on_flush(self, flushed: List, cycle: int) -> None:
        """Default reclamation: free the new ptag of every flushed entry.

        *flushed* is ordered youngest -> oldest.  The SRT was already
        restored by the pipeline; schemes override this when some new
        ptags may already have been early released (ATR).
        """
        self.stats.flush_walks += 1
        for entry in flushed:
            for record in entry.dests:
                self.unit.files[record.file].freelist.free(record.new_ptag)
                self.stats.flush_frees += 1

    # -- shared helpers ---------------------------------------------------------
    def _free(self, file_cls: RegClass, ptag: int) -> None:
        self.unit.files[file_cls].freelist.free(ptag)

    def describe(self) -> str:
        return self.name

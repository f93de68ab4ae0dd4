"""Non-speculative early release (paper sections 2.3 / 4.3, after
Monreal et al. [19] with the paper's safe precommit definition).

A physical register is freed before the commit of its redefining
instruction when (1) its consumer count is zero and (2) the redefining
instruction has *precommitted* — all older branches are resolved and all
older exception-causing instructions are known not to fault.  Precommitted
instructions can never flush, so the release is safe and needs no recovery
machinery; the cost is that releases happen in precommit order, typically
only a few cycles before commit (paper Figure 4).

:class:`NonSpecRelease` holds the redefiner bookkeeping; nonspec-ER
hands it every previous mapping, the combined scheme only those ATR does
not claim.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...isa import RegClass
from .tracking import ConsumerTrackingScheme


class NonSpecRelease:
    """Release of a previous mapping once its redefiner precommits.

    Mixed in ahead of a :class:`~.tracking.ConsumerTrackingScheme`.  Each
    previous ptag handed to :meth:`_not_claimed` is registered against
    its redefiner; it is freed when the redefiner has precommitted, the
    redefiner still owns its release, and the ptag is written with no
    unissued consumer.  Commit and flush drop the registration.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # (file, prev_ptag) -> (rob entry, dest record) of the redefiner.
        self._redefiner: Dict[Tuple[RegClass, int], tuple] = {}

    def _not_claimed(self, entry, record, cycle: int) -> None:
        """Register *entry* as the redefiner of *record*'s previous ptag."""
        self._redefiner[(record.file, record.release_prev)] = (entry, record)

    def _try_nonspec(self, file_cls: RegClass, ptag: int) -> None:
        """Free *ptag* if its redefiner precommitted and still owns it."""
        redefiner = self._redefiner.get((file_cls, ptag))
        if redefiner is None:
            return
        entry, record = redefiner
        if entry.precommitted and not entry.squashed and record.release_prev == ptag:
            self._nonspec_release(file_cls, record)

    def on_precommit(self, entry, cycle: int) -> None:
        for record in entry.dests:
            ptag = record.release_prev
            if ptag is None:
                continue
            prt = self.unit.files[record.file].prt
            if prt.consumers(ptag) == 0 and prt.is_written(ptag):
                self._nonspec_release(record.file, record)

    def _nonspec_release(self, file_cls: RegClass, record) -> None:
        ptag = record.release_prev
        record.release_prev = None
        self._redefiner.pop((file_cls, ptag), None)
        file = self.unit.files[file_cls]
        file.prt.entries[ptag].early_released = True
        file.freelist.free(ptag)
        self.stats.nonspec_frees += 1
        self._notify_release(file_cls, ptag)

    def on_commit(self, entry, cycle: int) -> None:
        for record in entry.dests:
            if record.release_prev is not None:
                self._redefiner.pop((record.file, record.release_prev), None)
        super().on_commit(entry, cycle)

    def on_flush(self, flushed: List, cycle: int) -> None:
        # Flushed redefiners never released anything non-speculatively
        # (they were never precommitted), so only their registrations go.
        for entry in flushed:
            for record in entry.dests:
                if record.release_prev is not None:
                    key = (record.file, record.release_prev)
                    registered = self._redefiner.get(key)
                    if registered is not None and registered[0] is entry:
                        del self._redefiner[key]
        super().on_flush(flushed, cycle)


class NonSpecEarlyReleaseScheme(NonSpecRelease, ConsumerTrackingScheme):
    """Early release gated on the redefiner's precommit."""

    name = "nonspec_er"

    def __init__(self):
        super().__init__(restore_counts_on_flush=True)

    # -- rename: nothing is claimed, every previous mapping is tracked ------------
    def post_rename(self, entry, cycle: int) -> None:
        for record in entry.dests:
            if record.release_prev is not None:
                self._not_claimed(entry, record, cycle)

    # -- release triggers ------------------------------------------------------------
    def _count_reached_zero(self, file_cls: RegClass, ptag: int, cycle: int) -> None:
        if self.unit.files[file_cls].prt.is_written(ptag):
            self._try_nonspec(file_cls, ptag)

    def on_writeback(self, file_cls: RegClass, ptag: int, cycle: int) -> None:
        if self.unit.files[file_cls].prt.consumers(ptag) == 0:
            self._try_nonspec(file_cls, ptag)

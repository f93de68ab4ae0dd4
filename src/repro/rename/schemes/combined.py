"""ATR combined with non-speculative early release (paper section 4.3).

The two mechanisms are synergistic: ATR releases registers allocated in
atomic commit regions as soon as they are redefined and consumed —
potentially long before precommit — while nonspec-ER covers the non-atomic
registers, freeing them once their redefiner precommits.  The consumer
counter is shared (paper section 4.4 notes the combination therefore adds
effectively no storage); the no-early-release marking is kept as a
separate bit so bulk marking does not destroy the counts nonspec-ER needs
(see ``repro.rename.physreg`` for the encoding discussion).
"""

from __future__ import annotations

from ...isa import RegClass
from .atr import AtrScheme
from .nonspec import NonSpecRelease


class CombinedScheme(NonSpecRelease, AtrScheme):
    """ATR for atomic regions, nonspec-ER for everything else.

    Previous mappings ATR does not claim reach :class:`NonSpecRelease`
    through ATR's ``_not_claimed`` hook.
    """

    name = "combined"

    def __init__(self, redefine_delay: int = 0, debug_checks: bool = True):
        super().__init__(
            redefine_delay=redefine_delay,
            debug_checks=debug_checks,
            restore_counts_on_flush=True,
        )

    # -- release triggers ---------------------------------------------------------
    def _count_reached_zero(self, file_cls: RegClass, ptag: int, cycle: int) -> None:
        file = self.unit.files[file_cls]
        e = file.prt.entries[ptag]
        if not e.value_ready:
            return
        if file.prt.redefined_visible(ptag, cycle) and not e.early_released:
            self._atr_release(file_cls, ptag)
            return
        self._try_nonspec(file_cls, ptag)

    def on_writeback(self, file_cls: RegClass, ptag: int, cycle: int) -> None:
        file = self.unit.files[file_cls]
        e = file.prt.entries[ptag]
        if e.consumer_count != 0 or e.early_released:
            return
        if file.prt.redefined_visible(ptag, cycle):
            self._atr_release(file_cls, ptag)
            return
        self._try_nonspec(file_cls, ptag)

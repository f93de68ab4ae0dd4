"""Precommit stage: advance the guaranteed-to-commit pointer.

An exception-causing instruction blocks precommit until it is
*guaranteed not to fault*: for loads/stores that is address translation
(at issue), for divides operand inspection (also at issue) — NOT data
return.  Precommit therefore runs far ahead of commit during a cache
miss (paper section 2.3).
"""

from __future__ import annotations

from ...rename.schemes import bound_hook
from . import Stage


class PrecommitStage(Stage):
    """Advance the precommit pointer, up to precommit width."""

    name = "precommit"

    def __init__(self, state):
        super().__init__(state)
        self.width = self.config.precommit_width
        self.rob = state.rob
        self.on_precommit = bound_hook(state.scheme, "on_precommit")

    def run(self, state, cycle: int) -> None:
        rob = self.rob
        entries = rob.entries
        index = rob.head_index + rob.precommit_offset
        end = index + self.width
        if end > len(entries):
            end = len(entries)
        on_precommit = self.on_precommit
        probes = state.probes
        while index < end:
            entry = entries[index]
            if entry.instr.may_except and not entry.issued:
                break
            if not entry.resolved:
                break
            entry.precommitted = True
            if on_precommit is not None:
                on_precommit(entry, cycle)
            if probes is not None:
                for fn in probes.precommit:
                    fn(entry, cycle)
            rob.precommit_offset += 1
            index += 1

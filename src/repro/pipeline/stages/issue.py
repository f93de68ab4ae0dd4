"""Issue stage: oldest-ready selection per port group.

The port-group dispatch plan — ``(group heap, port width, is-load)``
triples — is precomputed at construction, so the per-cycle loop touches
no dicts and allocates nothing but the deferred-loads scratch list.
"""

from __future__ import annotations

import heapq

from ...isa import OpClass, Opcode
from ...rename.schemes import bound_hook
from ..rob import ROBEntry
from ..state import WORD
from . import Stage

#: Op class -> issue port group (static ISA property).
PORT_GROUPS = {
    OpClass.INT_ALU: "alu", OpClass.INT_MUL: "alu", OpClass.INT_DIV: "alu",
    OpClass.BRANCH: "alu", OpClass.JUMP: "alu", OpClass.JUMP_INDIRECT: "alu",
    OpClass.CALL: "alu", OpClass.RETURN: "alu",
    OpClass.VEC_ALU: "alu", OpClass.VEC_MUL: "alu", OpClass.VEC_DIV: "alu",
    OpClass.NOP: "alu", OpClass.HALT: "alu",
    OpClass.LOAD: "load", OpClass.VEC_LOAD: "load",
    OpClass.STORE: "store", OpClass.VEC_STORE: "store",
}


def enqueue_ready(state, entry: ROBEntry) -> None:
    """Push a fully source-ready entry onto its port group's ready heap."""
    heapq.heappush(state.ready[PORT_GROUPS[entry.instr.op_class]],
                   (entry.seq, entry))


class IssueStage(Stage):
    """Select and launch oldest-ready instructions, one heap per group."""

    name = "issue"

    def __init__(self, state, execute_unit):
        super().__init__(state)
        self.unit = execute_unit
        config = self.config
        ready = state.ready
        # Precomputed dispatch plan; heaps are identity-stable on state.
        self.port_plan = (
            (ready["alu"], config.alu_ports, False),
            (ready["load"], config.load_ports, True),
            (ready["store"], config.store_ports, False),
        )
        self.on_issue = bound_hook(state.scheme, "on_issue")
        self.completions = state.completions
        self.stores = state.stores
        self.store_words = state.store_words

    def run(self, state, cycle: int) -> None:
        pop = heapq.heappop
        push = heapq.heappush
        probes = state.probes
        on_issue = self.on_issue
        dispatch = self.unit.dispatch
        completions = self.completions
        for heap, width, is_load in self.port_plan:
            deferred = []
            issued = 0
            while heap and issued < width:
                seq, entry = pop(heap)
                if entry.squashed or entry.issued:
                    continue
                if is_load and self._load_blocked_by_store(entry):
                    deferred.append((seq, entry))
                    continue
                entry.issued = True
                state.rs_used -= 1
                # Probes first: the sanitizer's use-after-release / underflow
                # checks must observe the consumer counts before the scheme's
                # issue hook decrements them.
                if probes is not None:
                    for fn in probes.issue:
                        fn(entry, cycle)
                if on_issue is not None:
                    on_issue(entry, cycle)
                done = cycle + dispatch(entry, cycle)
                pending = completions.get(done)
                if pending is None:
                    completions[done] = [entry]
                else:
                    pending.append(entry)
                issued += 1
            for item in deferred:
                push(heap, item)

    def _load_blocked_by_store(self, entry: ROBEntry) -> bool:
        """True if an older, not-yet-issued store writes a word this load
        reads (the only ordering a perfectly-predicted machine enforces)."""
        addr = entry.mem_addr
        if addr is None:
            return False
        words = 4 if entry.instr.opcode is Opcode.VLD else 1
        store_words = self.store_words
        stores = self.stores
        seq = entry.seq
        for i in range(words):
            for store_seq in store_words.get(addr + i * WORD, ()):
                if store_seq < seq and not stores[store_seq].issued:
                    return True
        return False

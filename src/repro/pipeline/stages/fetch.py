"""Fetch stage: frontend supply, branch prediction, wrong-path entry.

Trace-driven with execution-driven wrong-path modeling, mirroring the
paper's Scarab setup (section 5.1): the correct path replays the
functional emulator's trace; after a detected misprediction, fetch
follows the predicted (wrong) target through the *static* program image
until the mispredicted branch resolves and the pipeline flushes.
"""

from __future__ import annotations

from typing import Optional

from ...branch import Prediction
from ...isa import I_BYTES
from ..rob import ROBEntry
from . import Stage


class FetchStage(Stage):
    """Per-cycle instruction supply into the frontend queue.

    Each fetched instruction becomes the :class:`~repro.pipeline.rob.ROBEntry`
    that rename later appends to the ROB: on the correct path it is built
    from the trace entry's fields (never its recorded ``result``), on the
    wrong path from what the :class:`~repro.frontend.WrongPathSupplier`
    decodes.
    """

    name = "fetch"

    def __init__(self, state):
        super().__init__(state)
        config = self.config
        self.fetch_width = config.fetch_width
        self.fetch_targets = config.fetch_targets_per_cycle
        self.frontend_depth = config.frontend_depth
        self.ft_block_bytes = config.ft_block_bytes
        self.l1i_latency = config.memory.l1i_latency
        self.branch_unit = state.branch_unit
        self.memory = state.memory
        self.trace = state.trace
        self.stats = state.stats
        self.wp_supplier = state.wp_supplier

    def run(self, state, cycle: int) -> None:
        if cycle < state.fetch_stall_until or state.stalled_for_resolve:
            return
        if state.interrupt_fetch_stall:
            return
        fetch_queue = state.fetch_queue
        if len(fetch_queue) - state.fq_head >= 3 * self.fetch_width:
            return
        probes = state.probes
        ready_at = cycle + self.frontend_depth
        trace_entries = self.trace.entries
        block_bytes = self.ft_block_bytes
        predict = self.predict
        slots = self.fetch_width
        targets = self.fetch_targets
        fetched = 0
        while slots > 0 and targets > 0:
            seq = state.next_seq
            wrong_path = state.wrong_path
            if wrong_path:
                pc = state.wrong_pc
                if pc is None:
                    break
                supplied = self.wp_supplier.fetch(pc, seq)
                if supplied is None:
                    break
                instr, next_pc, mem_addr = supplied
                entry = ROBEntry(seq, -1, pc, instr, next_pc, False, mem_addr,
                                 True, ready_at)
            else:
                cursor = state.cursor
                if cursor >= len(trace_entries):
                    break
                traced = trace_entries[cursor]
                pc = traced.pc
                entry = ROBEntry(seq, cursor, pc, traced.instr, traced.next_pc,
                                 traced.taken, traced.mem_addr, False, ready_at)
            # The seq is spent even when an icache miss drops the entry
            # (wrong-path pseudo-addresses depend on it).
            state.next_seq = seq + 1
            block = (pc * I_BYTES) // block_bytes
            if block != state.last_fetch_block and not self._icache_ok(
                    state, block, pc, cycle):
                break
            prediction, mispredicted, taken_redirect = predict(entry)
            entry.prediction = prediction
            entry.mispredicted = mispredicted
            fetch_queue.append(entry)
            fetched += 1
            if probes is not None:
                for fn in probes.fetch:
                    fn(entry, cycle)
            # Advance the fetch pc.
            if wrong_path:
                if prediction is not None and prediction.taken:
                    state.wrong_pc = prediction.target
                    if prediction.target is None:
                        state.stalled_for_resolve = True
                else:
                    state.wrong_pc = pc + 1
            else:
                state.cursor = cursor + 1
                if mispredicted:
                    self._enter_wrong_path(state, pc, prediction)
            slots -= 1
            if taken_redirect:
                targets -= 1
                state.last_fetch_block = -1
            if state.stalled_for_resolve:
                break
        self.stats.fetched += fetched

    def _icache_ok(self, state, block: int, pc: int, cycle: int) -> bool:
        """Access fetch-target *block*, which holds *pc* and differs from
        the last one fetched; returns False on a miss that stalls the rest
        of this fetch cycle."""
        completion = self.memory.fetch(cycle, pc * I_BYTES)
        state.last_fetch_block = block
        if completion > cycle + self.l1i_latency:
            state.fetch_stall_until = completion
            return False
        return True

    # -- prediction ---------------------------------------------------------------
    def predict(self, entry: ROBEntry):
        """Predict control flow; returns (prediction, mispredicted, redirect).

        Called with every fetched entry.  Overridable extension point: the
        chaos engine's forced-mispredict wrapper subclasses this stage and
        perturbs the return value.
        """
        instr = entry.instr
        if not instr.is_control or instr.is_halt:
            return None, False, False
        prediction = self.branch_unit.predict(entry.pc, instr)
        if entry.wrong_path:
            # No ground truth; fetch follows the prediction.
            return prediction, False, prediction.taken
        mispredicted = self.branch_unit.resolve(
            entry.pc, instr, prediction, entry.taken, entry.next_pc
        )
        redirect = prediction.taken or entry.taken
        return prediction, mispredicted, redirect

    def _enter_wrong_path(self, state, pc: int,
                          prediction: Optional[Prediction]) -> None:
        """A correct-path branch at *pc* mispredicted: fetch continues at
        the predicted target."""
        state.wp_ras_snapshot = self.branch_unit.ras.snapshot()
        state.wrong_path = True
        if prediction is not None and prediction.taken and prediction.target is not None:
            state.wrong_pc = prediction.target
        elif prediction is not None and not prediction.taken:
            state.wrong_pc = pc + 1
        else:
            state.wrong_pc = None
            state.stalled_for_resolve = True

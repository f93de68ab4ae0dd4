"""Commit stage: in-order retirement, up to retire width.

Stores write the memory image here (address/value were captured at
issue), and the release scheme's commit hook performs conventional
frees.  The ``commit`` probe event fires after that hook; per-instruction
stage timelines are a probe (:class:`~repro.pipeline.stats.TimelineProbe`).
"""

from __future__ import annotations

from ...isa import OpClass
from . import Stage


class CommitStage(Stage):
    """Retire completed, precommitted instructions from the ROB head."""

    name = "commit"

    def __init__(self, state):
        super().__init__(state)
        self.width = self.config.retire_width
        self.rob = state.rob
        self.on_commit = state.scheme.on_commit
        self.checkpoints = state.checkpoints
        self.memory = state.memory
        self.stats = state.stats
        self.stores = state.stores
        self.mem_values = state.mem_values
        #: ``committed_by_class`` key of each op class.
        self.class_names = {op_class: op_class.value for op_class in OpClass}

    def run(self, state, cycle: int) -> None:
        rob = self.rob
        entries = rob.entries
        stats = self.stats
        by_class = stats.committed_by_class
        class_names = self.class_names
        on_commit = self.on_commit
        probes = state.probes
        for _ in range(self.width):
            index = rob.head_index
            if index >= len(entries):
                break
            entry = entries[index]
            if not entry.completed or not entry.precommitted:
                break
            rob.pop_head()
            instr = entry.instr
            if instr.is_store:
                self._commit_store(state, entry, cycle)
            if instr.is_load:
                state.lq_used -= 1
            on_commit(entry, cycle)
            if entry.trace_seq >= 0:
                state.last_committed_trace_seq = entry.trace_seq
            if probes is not None:
                for fn in probes.commit:
                    fn(entry, cycle)
            if entry.has_checkpoint:
                self.checkpoints.release_older_equal(entry.seq)
            stats.committed += 1
            name = class_names[instr.op_class]
            by_class[name] = by_class.get(name, 0) + 1

    def _commit_store(self, state, entry, cycle: int) -> None:
        record = self.stores.pop(entry.seq, None)
        if record is not None:
            mem_values = self.mem_values
            for addr, value in record.words:
                mem_values[addr] = value
        state.drop_store_words(entry)
        state.sq_used -= 1
        if entry.mem_addr is not None:
            self.memory.store(cycle, entry.mem_addr, entry.pc)

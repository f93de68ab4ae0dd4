"""Execute: functional-unit dispatch and the completion (writeback) phase.

``ExecuteUnit`` models the execution side effects of one launched
instruction — value computation through physical registers, store-record
capture, store-to-load forwarding, cache access — and returns its
latency; the per-``OpClass`` latency table is precomputed from the
config at construction so the hot path performs a single dict lookup.
The chaos engine's latency-jitter wrapper subclasses it.

``ExecuteStage`` is the per-cycle completion phase: writeback, wakeup of
waiting consumers, and branch resolution (which hands mispredicted
branches to the flush stage).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict

from ...isa import OpClass, Opcode
from ...isa.semantics import compute
from ...rename.schemes import bound_hook
from ..rob import ROBEntry
from ..state import WORD
from . import Stage
from .issue import enqueue_ready

_by_seq = attrgetter("seq")


class ExecuteUnit:
    """Execution side effects + latency for one issued instruction."""

    def __init__(self, state):
        config = state.config
        self.lat_store = config.lat_store
        self.lat_forward = config.lat_forward
        self.l1d_latency = config.memory.l1d_latency
        self.latency_table: Dict[OpClass, int] = {
            OpClass.INT_ALU: config.lat_int_alu,
            OpClass.INT_MUL: config.lat_int_mul,
            OpClass.INT_DIV: config.lat_int_div,
            OpClass.VEC_ALU: config.lat_vec_alu,
            OpClass.VEC_MUL: config.lat_vec_mul,
            OpClass.VEC_DIV: config.lat_vec_div,
            OpClass.BRANCH: config.lat_branch,
            OpClass.JUMP: config.lat_branch,
            OpClass.JUMP_INDIRECT: config.lat_branch,
            OpClass.CALL: config.lat_branch,
            OpClass.RETURN: config.lat_branch,
            OpClass.NOP: 1,
            OpClass.HALT: 1,
        }
        self.memory = state.memory
        self.values = state.values
        self.results = state.results
        self.stores = state.stores
        self.store_words = state.store_words
        self.mem_values = state.mem_values
        self.data_word = state.trace.program.data.get

    def dispatch(self, entry: ROBEntry, cycle: int) -> int:
        """Perform the execution side effects; returns the latency.

        Overridable extension point: the chaos engine's jitter wrapper
        adds seeded slack to the returned latency.
        """
        instr = entry.instr
        op_class = instr.op_class
        if op_class is OpClass.LOAD or op_class is OpClass.VEC_LOAD:
            return self._execute_load(entry, cycle)
        if op_class is OpClass.STORE or op_class is OpClass.VEC_STORE:
            self._execute_store(entry)
            return self.lat_store
        if not entry.wrong_path and instr.dests:
            if instr.opcode is Opcode.CALL:
                self.results[entry.seq] = entry.pc + 1
            elif op_class is not OpClass.NOP and op_class is not OpClass.HALT:
                values = self.values
                srcs = [
                    values[file_cls][ptag]
                    for file_cls, _slot, ptag in entry.src_ptags
                ]
                self.results[entry.seq] = compute(instr, srcs)
        return self.latency_table[op_class]

    def _execute_store(self, entry: ROBEntry) -> None:
        """Record the words a correct-path store writes, with their values,
        for forwarding to younger loads and for commit."""
        record = self.stores.get(entry.seq)
        if record is None:
            return
        record.issued = True
        if entry.wrong_path:
            return
        addr = entry.mem_addr
        file_cls, _slot, ptag = entry.src_ptags[0]
        value = self.values[file_cls][ptag]
        if entry.instr.opcode is Opcode.VST:
            record.words = [
                ((addr + i * WORD), lane) for i, lane in enumerate(value)
            ]
        else:
            record.words = [(addr, value)]

    def _execute_load(self, entry: ROBEntry, cycle: int) -> int:
        addr = entry.mem_addr
        if addr is None:  # wrong-path fetch past image edge; treat as hit
            return self.l1d_latency
        is_vector = entry.instr.opcode is Opcode.VLD
        word_count = 4 if is_vector else 1
        forwarded = self._forward_from_stores(entry.seq, addr, word_count)
        if not entry.wrong_path:
            lanes = []
            for i in range(word_count):
                word_addr = addr + i * WORD
                value = forwarded.get(word_addr)
                if value is None:
                    value = self.mem_values.get(word_addr)
                if value is None:
                    value = self.data_word(word_addr, 0)
                lanes.append(value)
            self.results[entry.seq] = tuple(lanes) if is_vector else lanes[0]
        if not is_vector and len(forwarded) == word_count:
            return self.lat_forward
        completion = self.memory.load(cycle, addr, entry.pc)
        return max(1, completion - cycle)

    def _forward_from_stores(self, load_seq: int, addr: int,
                             word_count: int) -> Dict[int, int]:
        """Youngest-older-store forwarding, per word.

        Each word walks the in-flight stores that write it (``store_words``,
        oldest first) from the youngest, and takes its value from the
        first older, issued store whose record holds the word: an issued
        wrong-path store records no words and is passed over.
        """
        out: Dict[int, int] = {}
        store_words = self.store_words
        stores = self.stores
        for i in range(word_count):
            word_addr = addr + i * WORD
            seqs = store_words.get(word_addr)
            if seqs is None:
                continue
            for store_seq in reversed(seqs):
                if store_seq >= load_seq:
                    continue
                record = stores[store_seq]
                if not record.issued:
                    continue
                value = _value_of(record.words, word_addr)
                if value is not None:
                    out[word_addr] = value
                    break
        return out


def _value_of(words, word_addr: int):
    """The value a store record writes to *word_addr*, or ``None``."""
    for written, value in words:
        if written == word_addr:
            return value
    return None


class ExecuteStage(Stage):
    """Completion phase: writeback, wakeup, branch resolution."""

    name = "execute"

    def __init__(self, state, flush_stage):
        super().__init__(state)
        self.flush = flush_stage
        self.on_writeback = bound_hook(state.scheme, "on_writeback")
        self.completions = state.completions
        self.results = state.results
        self.values = state.values
        self.waiters = state.waiters
        self.ptag_ready = state.ptag_ready
        self.prt_entries = {cls: file.prt.entries
                            for cls, file in state.rename_unit.files.items()}

    def run(self, state, cycle: int) -> None:
        pending = self.completions.pop(cycle, None)
        if not pending:
            return
        if len(pending) > 1:
            pending.sort(key=_by_seq)
        probes = state.probes
        results = self.results
        ptag_ready = self.ptag_ready
        prt_entries = self.prt_entries
        on_writeback = self.on_writeback
        waiting = self.waiters
        for entry in pending:
            if entry.squashed:
                results.pop(entry.seq, None)
                continue
            entry.completed = True
            if probes is not None:
                for fn in probes.writeback:
                    fn(entry, cycle)
            dests = entry.dests
            # Dispatch left each correct-path value here.
            result = results.pop(entry.seq, None)
            if result is not None and dests:
                record = dests[0]
                self.values[record.file][record.new_ptag] = result
            for record in dests:
                # Writeback, then wakeup of the consumers waiting on it.
                file_cls = record.file
                ptag = record.new_ptag
                ptag_ready[file_cls][ptag] = True
                prt_entries[file_cls][ptag].value_ready = True
                if on_writeback is not None:
                    on_writeback(file_cls, ptag, cycle)
                waiters = waiting.pop((file_cls, ptag), None)
                if waiters:
                    for waiter in waiters:
                        if waiter.squashed or waiter.issued:
                            continue
                        waiter.unready_sources -= 1
                        if waiter.unready_sources == 0:
                            enqueue_ready(state, waiter)
            if entry.instr.is_control:
                entry.resolved = True
                if entry.mispredicted:
                    self.flush.flush_from(state, entry, cycle)

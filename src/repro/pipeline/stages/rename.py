"""Rename/dispatch stage: SRT lookup, destination allocation, dispatch.

All structural stall causes live here; a blocked cycle is charged to the
first blocking cause (``empty``, ``rob``, ``rs``, ``lq``, ``sq``,
``freelist``), mirrored as ``rename_stall`` probe events.
"""

from __future__ import annotations

from ...rename.schemes import bound_hook
from ..state import StoreRecord, store_word_addrs
from . import Stage
from .issue import enqueue_ready


class RenameStage(Stage):
    """Rename and dispatch up to rename width instructions per cycle.

    The fetch queue holds the entries fetch built; renaming one fills in
    its rename fields and appends the same object to the ROB.
    """

    name = "rename"

    def __init__(self, state):
        super().__init__(state)
        config = self.config
        self.width = config.rename_width
        self.rs_size = config.rs_size
        self.lq_size = config.lq_size
        self.sq_size = config.sq_size
        self.rob = state.rob
        self.rename_unit = state.rename_unit
        self.checkpoints = state.checkpoints
        self.stats = state.stats
        self.waiters = state.waiters
        self.ptag_ready = state.ptag_ready
        self.stores = state.stores
        self.store_words = state.store_words
        scheme = state.scheme
        self.pre_rename = bound_hook(scheme, "pre_rename")
        self.post_rename = bound_hook(scheme, "post_rename")

    def _stall(self, state, cause: str, cycle: int) -> None:
        probes = state.probes
        if probes is not None:
            for fn in probes.rename_stall:
                fn(cause, cycle)

    def run(self, state, cycle: int) -> None:
        stats = self.stats
        rename_unit = self.rename_unit
        rob = self.rob
        pre_rename = self.pre_rename
        post_rename = self.post_rename
        probes = state.probes
        fetch_queue = state.fetch_queue
        fq_head = state.fq_head
        queued = len(fetch_queue)
        rob_free = rob.capacity - len(rob)
        width = self.width
        renamed = 0
        while renamed < width:
            if fq_head >= queued:
                if renamed == 0:
                    stats.stall_empty += 1
                    self._stall(state, "empty", cycle)
                break
            entry = fetch_queue[fq_head]
            if entry.ready_cycle > cycle:
                break
            instr = entry.instr
            if rob_free <= 0:
                if renamed == 0:
                    stats.stall_rob += 1
                    self._stall(state, "rob", cycle)
                break
            if state.rs_used >= self.rs_size:
                if renamed == 0:
                    stats.stall_rs += 1
                    self._stall(state, "rs", cycle)
                break
            if instr.is_load and state.lq_used >= self.lq_size:
                if renamed == 0:
                    stats.stall_lq += 1
                    self._stall(state, "lq", cycle)
                break
            if instr.is_store and state.sq_used >= self.sq_size:
                if renamed == 0:
                    stats.stall_sq += 1
                    self._stall(state, "sq", cycle)
                break
            if instr.dest_counts and not rename_unit.can_rename(instr):
                if renamed == 0:
                    stats.stall_freelist += 1
                    self._stall(state, "freelist", cycle)
                break
            fq_head += 1
            state.fq_head = fq_head
            rob_free -= 1
            renamed += 1

            if instr.src_plan:
                entry.src_ptags = rename_unit.lookup_sources(instr)
            # Sources event fires before destination allocation (which could
            # legitimately recycle a ptag an unsafe scheme just freed) — the
            # sanitizer captures allocation epochs here.
            if probes is not None:
                for fn in probes.rename_sources:
                    fn(entry, cycle)
            if pre_rename is not None:
                pre_rename(entry, cycle)
            if instr.dest_plan:
                entry.dests = rename_unit.allocate_dests(instr)
            if probes is not None:
                for fn in probes.allocate:
                    fn(entry, cycle)
            if post_rename is not None:
                post_rename(entry, cycle)
            rob.append(entry)
            stats.renamed += 1
            if entry.wrong_path:
                stats.wrong_path_renamed += 1

            # Scheduling bookkeeping
            state.rs_used += 1
            if instr.is_load:
                state.lq_used += 1
            if instr.is_store:
                state.sq_used += 1
                seq = entry.seq
                self.stores[seq] = StoreRecord(seq)
                store_words = self.store_words
                for word in store_word_addrs(entry):
                    store_words.setdefault(word, []).append(seq)
            unready = 0
            ptag_ready = self.ptag_ready
            for file_cls, _slot, ptag in entry.src_ptags:
                if not ptag_ready[file_cls][ptag]:
                    unready += 1
                    self.waiters.setdefault((file_cls, ptag), []).append(entry)
            for record in entry.dests:
                ptag_ready[record.file][record.new_ptag] = False
            entry.unready_sources = unready
            if unready == 0:
                enqueue_ready(state, entry)

            # Checkpoint low-confidence branches (timing model only)
            prediction = entry.prediction
            if (
                instr.is_conditional_branch
                and prediction is not None
                and not prediction.confident
            ):
                entry.has_checkpoint = self.checkpoints.take(entry.seq)
            if probes is not None:
                for fn in probes.rename:
                    fn(entry, cycle)
        if fq_head > 4096:
            del fetch_queue[:fq_head]
            state.fq_head = 0

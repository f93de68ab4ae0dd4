"""Flush: misprediction recovery and interrupt-window squash.

Event-driven rather than per-cycle: the execute stage invokes
:meth:`FlushStage.flush_from` when a mispredicted branch resolves, and
the interrupt controller invokes :meth:`FlushStage.interrupt_flush`
(via ``Core.interrupt_flush``) to squash the speculative tail at the
precommit boundary (paper section 4.1, option (b)).
"""

from __future__ import annotations

from . import Stage


class FlushStage(Stage):
    """Squash, SRT restore, scheme reclamation, frontend restart."""

    name = "flush"

    def __init__(self, state):
        super().__init__(state)
        config = self.config
        self.rob = state.rob
        self.scheme = state.scheme
        self.rename_unit = state.rename_unit
        self.checkpoints = state.checkpoints
        self.branch_unit = state.branch_unit
        self.stats = state.stats
        self.redirect_penalty = config.redirect_penalty
        self.checkpoint_recovery_cycles = config.checkpoint_recovery_cycles
        self.recovery_walk_width = config.recovery_walk_width

    def run(self, state, cycle: int) -> None:
        """Flush has no unconditional per-cycle work."""

    # -- branch misprediction ----------------------------------------------------
    def flush_from(self, state, branch_entry, cycle: int) -> None:
        """Misprediction recovery at branch resolution."""
        seq = branch_entry.seq
        flushed = self.rob.flush_younger(seq)
        self.stats.flushes += 1
        self.stats.flushed_instructions += len(flushed)

        self._restore_srt(flushed)
        probes = state.probes
        if probes is not None:
            for fn in probes.flush:
                fn(flushed, "branch", cycle)
        # Scheme reclamation (ATR's two-bit walk lives here).
        self.scheme.on_flush(flushed, cycle)
        self._release_flushed_resources(state, flushed)
        self._restart_frontend(state)
        if state.wp_ras_snapshot is not None:
            self.branch_unit.ras.restore(state.wp_ras_snapshot)
            state.wp_ras_snapshot = None

        # Recovery timing: exact checkpoint vs walk.
        if self.checkpoints.has_exact(seq):
            recovery = self.checkpoint_recovery_cycles
        else:
            recovery = max(
                self.checkpoint_recovery_cycles,
                (len(flushed) + self.recovery_walk_width - 1)
                // self.recovery_walk_width,
            )
        self.checkpoints.squash_younger(seq)
        state.fetch_stall_until = cycle + self.redirect_penalty + recovery

    # -- interrupt squash --------------------------------------------------------
    def interrupt_flush(self, state, cycle: int) -> int:
        """Squash the *speculative* tail of the window for interrupt
        service (paper section 4.1, option (b)) and rewind fetch.

        The flush boundary is the precommit pointer: precommitted
        instructions are guaranteed to commit — an early-release scheme
        may already have freed their previous registers — so they drain
        normally while everything younger is squashed.  The caller (the
        interrupt controller) has checked that no ATR claim crosses that
        boundary; ATR's flush-walk assertions enforce it in debug mode.

        Returns the number of squashed instructions.
        """
        rob = self.rob
        boundary_offset = rob.precommit_offset
        if len(rob) > boundary_offset:
            if boundary_offset > 0:
                boundary_seq = rob.at_offset(boundary_offset - 1).seq
            else:
                boundary_seq = rob.head().seq - 1
            flushed = rob.flush_younger(boundary_seq)
            self.stats.flushes += 1
            self.stats.flushed_instructions += len(flushed)
            self._restore_srt(flushed)
            probes = state.probes
            if probes is not None:
                for fn in probes.flush:
                    fn(flushed, "interrupt", cycle)
            self.scheme.on_flush(flushed, cycle)
            self._release_flushed_resources(state, flushed)
            flushed_count = len(flushed)
        else:
            flushed_count = 0

        # Restart fetch after the youngest surviving correct-path
        # instruction (committed or still draining).
        resume = state.last_committed_trace_seq
        for entry in rob.in_flight():
            if entry.trace_seq > resume:
                resume = entry.trace_seq
        self._restart_frontend(state)
        state.wp_ras_snapshot = None
        state.cursor = resume + 1
        self.checkpoints.squash_younger(-1)
        return flushed_count

    # -- shared plumbing ---------------------------------------------------------
    def _restore_srt(self, flushed) -> None:
        """Restore the SRT by the backward walk over previous ptags."""
        files = self.rename_unit.files
        for entry in flushed:
            for record in entry.dests:
                files[record.file].srt[record.slot] = record.prev_ptag

    def _restart_frontend(self, state) -> None:
        state.fetch_queue.clear()
        state.fq_head = 0
        state.wrong_path = False
        state.wrong_pc = None
        state.stalled_for_resolve = False
        state.last_fetch_block = -1

    def _release_flushed_resources(self, state, flushed) -> None:
        ptag_ready = state.ptag_ready
        for entry in flushed:
            if not entry.issued:
                state.rs_used -= 1
            instr = entry.instr
            if instr.is_load:
                state.lq_used -= 1
            if instr.is_store:
                state.sq_used -= 1
                state.stores.pop(entry.seq, None)
                state.drop_store_words(entry)
            for record in entry.dests:
                ptag_ready[record.file][record.new_ptag] = True
            state.results.pop(entry.seq, None)

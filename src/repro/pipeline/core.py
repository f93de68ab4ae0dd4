"""The cycle-level out-of-order core: a thin stage orchestrator.

The machine itself lives in :class:`~repro.pipeline.state.PipelineState`
(all mutable state) and :mod:`repro.pipeline.stages` (one module per
phase); observers attach through :mod:`repro.pipeline.probes`.  ``Core``
wires those together, preserves the public API (``Core(...)``,
``step()``, ``run()``, stats, ``architectural_state()``), and drives the
documented per-cycle phase order — see DESIGN.md, "Pipeline
architecture", the single source of truth for stages, state, and the
probe event table.

The core computes every correct-path result through *physical*
registers, and every :meth:`Core.run` ends with two checks: free-list
conservation, then golden-model equivalence
(:meth:`Core.check_golden_state`), which compares the committed
architectural state with a replay of the run's own trace.  A release
scheme that lets a reallocation corrupt a live value fails the second —
the end-to-end safety check for early register release.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..frontend import ArchState, Emulator, Trace
from ..isa import RegClass
from ..rename import make_scheme
from ..rename.schemes import ReleaseScheme
from .config import CoreConfig
from .probes import Probe, ProbeManager
from .stages import (
    CommitStage,
    ExecuteStage,
    ExecuteUnit,
    FetchStage,
    FlushStage,
    IssueStage,
    PrecommitStage,
    RenameStage,
    StagePipeline,
)
from .state import PipelineState, build_state
from .stats import SimStats
from .warmup import WarmupState, fast_forward


class DeadlockError(RuntimeError):
    """The simulation made no forward progress for too many cycles.

    Always carries the cycle, the retired-instruction count, and the
    ROB-head seq/opcode (when occupied); ``snapshot`` additionally holds
    the full :func:`~repro.validate.snapshot.pipeline_snapshot` and is
    rendered by ``__str__`` so harness failure reports show where the
    machine was stuck.
    """

    def __init__(self, message: str, cycle: int = -1, committed: int = -1,
                 total: int = -1, head_seq: Optional[int] = None,
                 head_opcode: Optional[str] = None,
                 snapshot: Optional[Dict] = None):
        super().__init__(message)
        self.message = message
        self.cycle = cycle
        self.committed = committed
        self.total = total
        self.head_seq = head_seq
        self.head_opcode = head_opcode
        self.snapshot = snapshot

    def __str__(self) -> str:
        text = self.message
        if self.snapshot is not None:
            from ..validate.snapshot import format_snapshot
            text += "\n" + format_snapshot(self.snapshot)
        return text


class GoldenStateError(AssertionError):
    """The committed architectural state differs from the trace's.

    Raised at the end of :meth:`Core.run` when a register, FLAGS or a
    stored word differs from replaying the run's trace entries; the
    message names the trace and the first mismatches, core side first.
    An ``AssertionError``, so chaos cells report it as a violation.
    """


class Core:
    """One simulated core, bound to a trace and a release scheme."""

    def __init__(self, config: CoreConfig, trace: Trace,
                 scheme: Optional[ReleaseScheme] = None,
                 warmup: Optional[WarmupState] = None):
        config.validate()
        if scheme is None:
            scheme = make_scheme(config.scheme, config.redefine_delay)
        if warmup is None:  # a cold core starts from the stop-0 checkpoint
            warmup, = fast_forward(config, trace, [0])
        self.state = build_state(config, trace, scheme, warmup)
        self.stages = self._build_stages(self.state)
        self._pipeline = self.stages.in_order
        # Hot-loop caches: bound stage methods (one LOAD_FAST + call per
        # stage per cycle instead of two attribute chases) and the
        # structural limits the skip-ahead progress test needs.  All of
        # these are identity-stable for the life of the core.
        self._stage_runs = tuple(stage.run for stage in self._pipeline)
        self._scheme_tick = self.state.scheme.tick
        self._rs_size = config.rs_size
        self._lq_size = config.lq_size
        self._sq_size = config.sq_size
        self._fetch_queue_cap = 3 * config.fetch_width
        self._trace_len = len(trace.entries)
        ready = self.state.ready
        self._ready_heaps = ((ready["alu"], False), (ready["load"], True),
                             (ready["store"], False))
        self._load_blocked = self.stages.issue._load_blocked_by_store

        # Online invariant sanitizer (repro.validate).  Imported lazily at
        # construction time only: validate layers on top of the harness,
        # which imports this module, so a top-level import would cycle.
        if config.check_invariants:
            from ..validate.sanitizer import InvariantChecker
            self.add_probe(InvariantChecker(self.state))

    # -- stage construction (overridable: chaos wraps fetch/execute) ------------
    def _build_stages(self, state: PipelineState) -> StagePipeline:
        execute_unit = self._make_execute_unit(state)
        flush = FlushStage(state)
        return StagePipeline(
            fetch=self._make_fetch_stage(state),
            rename=RenameStage(state),
            issue=IssueStage(state, execute_unit),
            execute=ExecuteStage(state, flush),
            precommit=PrecommitStage(state),
            commit=CommitStage(state),
            flush=flush,
            execute_unit=execute_unit,
        )

    def _make_execute_unit(self, state: PipelineState) -> ExecuteUnit:
        return ExecuteUnit(state)

    def _make_fetch_stage(self, state: PipelineState) -> FetchStage:
        return FetchStage(state)

    # -- public state views (delegating to PipelineState) -----------------------
    config = property(lambda self: self.state.config)
    trace = property(lambda self: self.state.trace)
    stats = property(lambda self: self.state.stats)
    rob = property(lambda self: self.state.rob)
    scheme = property(lambda self: self.state.scheme)
    rename_unit = property(lambda self: self.state.rename_unit)
    branch_unit = property(lambda self: self.state.branch_unit)
    memory = property(lambda self: self.state.memory)
    checkpoints = property(lambda self: self.state.checkpoints)
    cycle = property(lambda self: self.state.cycle,
                     lambda self, v: setattr(self.state, "cycle", v))

    @property
    def checker(self):
        """The attached invariant sanitizer probe, or None."""
        from ..validate.sanitizer import InvariantChecker
        probes = self.state.probes
        if probes is None:
            return None
        return next(probes.find(InvariantChecker), None)

    # -- probe registration -----------------------------------------------------
    def add_probe(self, probe: Probe) -> Probe:
        """Register *probe*; takes effect from the next emission point."""
        manager = self.state.probes
        if manager is None:
            manager = self.state.probes = ProbeManager()
        manager.add(probe)
        self._sync_scheme_listeners()
        return probe

    def remove_probe(self, probe: Probe) -> None:
        manager = self.state.probes
        manager.remove(probe)
        if not manager.probes:
            self.state.probes = None
        self._sync_scheme_listeners()

    def _sync_scheme_listeners(self) -> None:
        """Point the scheme's release/claim callbacks at the probe layer
        while a probe subscribes to them, and clear them otherwise."""
        scheme = self.state.scheme
        manager = self.state.probes
        scheme.release_listener = (
            self._dispatch_release
            if manager is not None and manager.early_release else None)
        scheme.claim_listener = (
            self._dispatch_claim
            if manager is not None and manager.claim else None)

    def _dispatch_release(self, file_cls, ptag: int) -> None:
        state = self.state
        for fn in state.probes.early_release:
            fn(file_cls, ptag, state.cycle)

    def _dispatch_claim(self, file_cls, ptag: int) -> None:
        state = self.state
        for fn in state.probes.claim:
            fn(file_cls, ptag, state.cycle)

    # -- interrupts -------------------------------------------------------------
    def attach_interrupt_controller(self, controller) -> None:
        self.state.interrupt_controller = controller

    def interrupt_flush(self, cycle: int) -> int:
        """Squash the speculative tail at the precommit boundary for
        interrupt service; see :meth:`FlushStage.interrupt_flush`."""
        return self.stages.flush.interrupt_flush(self.state, cycle)

    # -- run --------------------------------------------------------------------
    def run(self, max_cycles: Optional[int] = None) -> SimStats:
        """Simulate until the trace is fully committed; returns the stats.

        When no probes or interrupt controller are attached, quiescent
        windows — stretches of cycles in which no stage can make progress
        because everything in flight waits on a known-latency event — are
        jumped instead of spun, with the per-cycle rename-stall accounting
        replayed in bulk so the resulting :class:`SimStats` are
        bit-identical to the spin loop.  Attaching a probe makes every
        cycle visible.  The run ends with :meth:`check_conservation` and
        :meth:`check_golden_state`.
        """
        state = self.state
        if max_cycles is None:
            max_cycles = 5000 + 100 * len(state.trace)
        last_commit_cycle = 0
        last_committed = 0
        stats = state.stats
        step = self.step
        while not state.done:
            state.cycle += 1
            step()
            if stats.committed != last_committed:
                last_committed = stats.committed
                last_commit_cycle = state.cycle
            else:
                if state.cycle - last_commit_cycle > 200_000:
                    raise self._deadlock("no commit for 200k cycles")
                if (not state.done and state.probes is None
                        and state.interrupt_controller is None):
                    # Furthest cycle provably indistinguishable from
                    # spinning; clamped so the deadlock/max-cycle raises
                    # fire at exactly the cycle the spin loop would.
                    bound = last_commit_cycle + 200_000
                    if max_cycles - 1 < bound:
                        bound = max_cycles - 1
                    target = self._skip_target(bound)
                    if target > state.cycle:
                        self._charge_skipped(target - state.cycle)
                        state.cycle = target
            if state.cycle >= max_cycles:
                raise self._deadlock(f"exceeded max_cycles={max_cycles}")
        stats.cycles = state.cycle
        self.check_conservation()
        self.check_golden_state()
        return stats

    def _skip_target(self, bound: int) -> int:
        """The furthest cycle the clock may jump to with no stage able to
        make progress in between; returns the current cycle when any stage
        could act next cycle (i.e. nothing may be skipped).

        Soundness: during a quiescent window the only per-cycle state
        change the spin loop performs is rename-stall accounting (replayed
        by :meth:`_charge_skipped`) — the scheme tick is a no-op until its
        next pending signal, the memory hierarchy reaps MSHRs lazily on
        access, and completion wakeups are keyed by absolute cycle — so
        every candidate below is an *upper* bound on the jump and the
        minimum of them is exact.
        """
        state = self.state
        cycle = state.cycle
        completions = state.completions
        if cycle + 1 in completions:
            return cycle  # writeback next cycle: the common busy case
        rob = state.rob
        head = rob.head()
        if head is not None and head.completed and head.precommitted:
            return cycle  # commit can retire
        pre = rob.at_offset(rob.precommit_offset)
        if (pre is not None and pre.resolved
                and (pre.issued or not pre.instr.may_except)):
            return cycle  # precommit pointer can advance
        load_blocked = self._load_blocked
        # Scan budget: heaps can be tombstone-heavy on busy phases, where
        # a deep scan costs more than the skip it almost never finds.
        # Giving up early is conservative — "no skip" is always sound.
        budget = 64
        for heap, is_load in self._ready_heaps:
            for _seq, entry in heap:
                budget -= 1
                if budget < 0:
                    return cycle
                if entry.issued or entry.squashed:
                    continue  # tombstone; popping it is not progress
                if is_load and load_blocked(entry):
                    continue  # deferred until an older store issues
                return cycle  # a ready instruction can issue
        fetch_queue = state.fetch_queue
        fq_head = state.fq_head
        if fq_head < len(fetch_queue):
            ready = fetch_queue[fq_head].ready_cycle
            if ready <= cycle + 1:
                # The frontend head is (or will be) renameable; skipping
                # is only sound while a structural limit blocks it.
                instr = fetch_queue[fq_head].instr
                if not (rob.is_full
                        or state.rs_used >= self._rs_size
                        or (instr.is_load and state.lq_used >= self._lq_size)
                        or (instr.is_store and state.sq_used >= self._sq_size)
                        or not state.rename_unit.can_rename(instr)):
                    return cycle
            elif ready - 1 < bound:
                bound = ready - 1  # frontend pipeline delay
        if (not state.stalled_for_resolve
                and not state.interrupt_fetch_stall
                and len(fetch_queue) - fq_head < self._fetch_queue_cap
                and (state.wrong_pc is not None if state.wrong_path
                     else state.cursor < self._trace_len)):
            stall = state.fetch_stall_until
            if stall <= cycle + 1:
                return cycle  # fetch can supply next cycle
            if stall - 1 < bound:
                bound = stall - 1  # icache-miss / redirect-penalty stall
        if completions:
            next_completion = min(completions) - 1
            if next_completion < bound:
                bound = next_completion
        pending = state.scheme.next_pending_cycle()
        if pending is not None and pending - 1 < bound:
            bound = pending - 1  # delayed redefinition signal (ATR)
        return bound if bound > cycle else cycle

    def _charge_skipped(self, skipped: int) -> None:
        """Replay the rename-stall accounting the spin loop would have
        performed over *skipped* quiescent cycles (the blocking cause is
        invariant across the window: nothing runs, so nothing changes)."""
        state = self.state
        stats = state.stats
        fetch_queue = state.fetch_queue
        fq_head = state.fq_head
        if fq_head >= len(fetch_queue):
            stats.stall_empty += skipped
            return
        if fetch_queue[fq_head].ready_cycle > state.cycle + 1:
            return  # head still in the frontend pipeline: no stall charged
        instr = fetch_queue[fq_head].instr
        if state.rob.is_full:
            stats.stall_rob += skipped
        elif state.rs_used >= self._rs_size:
            stats.stall_rs += skipped
        elif instr.is_load and state.lq_used >= self._lq_size:
            stats.stall_lq += skipped
        elif instr.is_store and state.sq_used >= self._sq_size:
            stats.stall_sq += skipped
        else:
            # _skip_target only skips past a renameable head when the free
            # list is the blocker.
            stats.stall_freelist += skipped

    def step(self) -> None:
        """Advance one cycle through the documented phase order."""
        state = self.state
        cycle = state.cycle
        probes = state.probes
        if probes is None:
            self._scheme_tick(cycle)
            controller = state.interrupt_controller
            if controller is not None:
                state.interrupt_fetch_stall = controller.tick(cycle)
            for run in self._stage_runs:
                run(state, cycle)
        else:
            phase_probes = probes.phase
            for fn in phase_probes:
                fn("scheme_tick", cycle)
            state.scheme.tick(cycle)
            controller = state.interrupt_controller
            if controller is not None:
                state.interrupt_fetch_stall = controller.tick(cycle)
            for stage in self._pipeline:
                for fn in phase_probes:
                    fn(stage.name, cycle)
                stage.run(state, cycle)
            for fn in probes.cycle_end:
                fn(cycle)
        # Inlined state.frontend_exhausted() — this runs every cycle.
        if (state.cursor >= self._trace_len
                and state.fq_head >= len(state.fetch_queue)
                and len(state.rob) == 0):
            state.done = True

    def _deadlock(self, reason: str) -> DeadlockError:
        """Build a fully diagnosed :class:`DeadlockError` for *reason*."""
        from ..validate.snapshot import pipeline_snapshot
        state = self.state
        head = state.rob.head()
        if head is not None:
            head_desc = (f"ROB head #{head.seq} {head.instr.opcode.name}"
                         f" [{'issued' if head.issued else 'not issued'}, "
                         f"{'completed' if head.completed else 'not completed'}, "
                         f"{'precommitted' if head.precommitted else 'not precommitted'}]")
        else:
            head_desc = "ROB empty"
        return DeadlockError(
            f"{reason} at cycle {state.cycle} "
            f"({state.stats.committed}/{len(state.trace)} committed, {head_desc})",
            cycle=state.cycle,
            committed=state.stats.committed,
            total=len(state.trace),
            head_seq=head.seq if head is not None else None,
            head_opcode=head.instr.opcode.name if head is not None else None,
            snapshot=pipeline_snapshot(state),
        )

    # -- queries ----------------------------------------------------------------
    def architectural_state(self) -> ArchState:
        """Committed architectural state, full memory image included."""
        return self.state.architectural_state()

    def check_conservation(self) -> None:
        """Free-list conservation: with an empty ROB every allocated ptag
        is exactly an SRT mapping."""
        self.state.check_conservation()

    def check_golden_state(self) -> None:
        """Golden-model equivalence: the committed registers, FLAGS and
        stored words equal those of replaying the trace.

        The replay commits each trace entry's recorded result into an
        :class:`~repro.frontend.Emulator` started from the core's start
        registers (its checkpoint's), so it executes nothing.  Only the
        words the trace stores are compared, never the full memory image.
        """
        state = self.state
        trace = state.trace
        replay = Emulator(trace.program)
        replay.regs = [*state.start_regs[RegClass.INT],
                       *state.start_regs[RegClass.VEC]]
        commit = replay.commit
        for entry in trace.entries:
            commit(entry)
        words = replay.written
        mismatches = state.architectural_state(words).diff(
            replay.snapshot(words))
        if mismatches:
            detail = "\n".join(f"  {line}" for line in mismatches)
            raise GoldenStateError(
                f"{trace.name}: committed state differs from replaying its "
                f"{len(trace)} trace entries (core != trace):\n{detail}")


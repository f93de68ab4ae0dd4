"""Functional fast-forward: the checkpoint every core starts from.

The tiered protocol (DESIGN.md, "Tiered simulation") replays a trace
prefix while updating only the cheap-to-model microarchitectural state
that matters for detailed accuracy, then hands the result to a detailed
:class:`~.core.Core` so the cycle-level window starts hot instead of
cold.  A core built without a checkpoint starts from the stop-0 one: a
fresh predictor, caches with the code image pre-warmed, and the reset
registers.  Nothing is emulated a second time: the trace already holds
every entry's pc, direction, target, address and committed result.

* **branch state** — every correct-path control instruction trains the
  direction predictor, BTB, indirect predictor, and RAS through the same
  ``predict``-then-``resolve`` sequence the fetch stage performs, so the
  predictor tables at the window boundary match what a detailed run from
  the start would have produced up to timing-dependent wrong-path noise
  (wrong-path fetch trains nothing in this machine, which is what makes
  this approximation tight);
* **cache/memory state** — instruction fetch touches the icache once per
  fetch-target block, loads and stores touch the data side, with the
  instruction index as a pseudo-cycle so MSHR merging and DRAM row state
  evolve plausibly; snapshots clear the MSHR file (all fills have
  logically arrived by the window boundary);
* **architectural state** — registers, FLAGS, and the words stored
  since reset, rebuilt by committing each entry's recorded ``result``
  into an :class:`~repro.frontend.Emulator` that executes nothing, and
  installed through the initial SRT so the window's value execution and
  end-of-window architectural comparison see the prefix's effects.  The
  program's data image stays shared underneath: no checkpoint copies it.

What is deliberately **not** primed: ROB/queue occupancy, in-flight
instructions, rename state beyond the architectural mapping, and store
buffers — the pipeline drains at a window boundary by construction, and
the first ~pipeline-depth cycles of a window re-fill the frontend (the
classic "detailed warmup" transient; EXPERIMENTS.md quantifies it).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..branch import BranchUnit, make_predictor
from ..frontend import ArchState, Emulator, Trace, memory_image
from ..isa import FLAGS, I_BYTES, NUM_INT_REGS, Program, RegClass
from ..memory import MemoryHierarchy
from .config import CoreConfig


def _clone(obj):
    """Deep copy via pickle — several times faster than ``copy.deepcopy``
    on the predictor/cache state cloned here, whose TAGE tables and
    cache tag stores are flat arrays and int lists (enum members pickle
    by name, so singletons stay singletons)."""
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def prewarm_code_image(config: CoreConfig, memory: MemoryHierarchy,
                       program: Program) -> None:
    """Fill L1I and L2 with *program*'s code image.

    Warms the instruction side as the paper's methodology warms each
    SimPoint before measurement; kernels are loop-dominated, so an icache
    cold start would just add a fixed DRAM delay to every run.  Every
    checkpoint starts here, the stop-0 one a cold core runs from
    included, so a window boundary is never colder than a detailed run
    from reset.
    """
    code_bytes = len(program) * I_BYTES
    for addr in range(0, code_bytes, config.memory.line_bytes):
        memory.l1i.fill(addr)
        memory.l2.fill(addr)


@dataclass
class WarmupState:
    """Primed state at one fast-forward stop.

    The architectural state is the registers plus the words written
    since reset; the program's data image underneath is shared, never
    copied and never written.  A checkpoint seeds exactly one detailed
    core: the core adopts its predictor, caches and written words
    (:meth:`take` leaves ``None`` here), and a second use raises.
    """

    instructions: int  #: prefix length executed before this stop
    data: Dict[int, int]  #: the program's data image (shared, read-only)
    #: Register values per file in SRT-slot order (FLAGS is int slot 16).
    regs: Dict[RegClass, Tuple]
    written: Optional[Dict[int, int]]  #: words stored since reset
    branch_unit: Optional[BranchUnit]
    memory: Optional[MemoryHierarchy]

    def _check_unused(self) -> None:
        if self.branch_unit is None:
            raise RuntimeError(
                f"warmup checkpoint at instruction {self.instructions} "
                f"already seeded a core")

    @property
    def arch(self) -> ArchState:
        """The full architectural state, data image included.

        Built on demand for comparisons; nothing on the simulation path
        reads it.
        """
        self._check_unused()
        int_regs = self.regs[RegClass.INT]
        return ArchState(int_regs=tuple(int_regs[:NUM_INT_REGS]),
                         vec_regs=tuple(self.regs[RegClass.VEC]),
                         flags=int_regs[FLAGS.srt_slot],
                         memory=memory_image(self.data, self.written))

    def take(self) -> Tuple[BranchUnit, MemoryHierarchy, Dict[int, int]]:
        """Hand the predictor, caches and written words to one core."""
        self._check_unused()
        state = (self.branch_unit, self.memory, self.written)
        self.branch_unit = self.memory = self.written = None
        return state


def fast_forward(config: CoreConfig, trace: Trace,
                 stops: Sequence[int]) -> List[WarmupState]:
    """Replay *trace*'s prefix once, snapshotting at *stops*.

    Each stop is an instruction count (0 = cold start); stops are
    deduplicated and visited in ascending order, so a multi-window tiered
    run pays one pass over the prefix regardless of window count.  Every
    stop but the last gets a copy of the predictor, caches and written
    words; the last stop takes the live ones, since the pass ends there.
    """
    entries = trace.entries
    ordered = sorted(set(stops))
    if ordered and (ordered[0] < 0 or ordered[-1] > len(entries)):
        raise ValueError(
            f"warmup stops {ordered[0]}..{ordered[-1]} outside trace of "
            f"{len(entries)} instructions")

    branch_unit = BranchUnit(direction=make_predictor(config.predictor))
    memory = MemoryHierarchy(config.memory)
    prewarm_code_image(config, memory, trace.program)

    # Executes nothing: it only commits each entry's recorded result.
    arch = Emulator(trace.program)
    commit = arch.commit
    predict, resolve = branch_unit.predict, branch_unit.resolve
    fetch, load, store = memory.fetch, memory.load, memory.store
    ft_block_bytes = config.ft_block_bytes
    last_fetch_block = -1
    executed = 0
    snapshots: List[WarmupState] = []
    for stop in ordered:
        for index in range(executed, stop):
            record = entries[index]
            commit(record)
            pc = record.pc
            instr = record.instr
            block = (pc * I_BYTES) // ft_block_bytes
            if block != last_fetch_block:
                fetch(index, pc * I_BYTES)
                last_fetch_block = block
            if record.taken:
                last_fetch_block = -1
            if instr.is_control and not instr.is_halt:
                resolve(pc, instr, predict(pc, instr), record.taken,
                        record.next_pc)
            mem_addr = record.mem_addr
            if mem_addr is not None:
                if instr.is_load:
                    load(index, mem_addr, pc)
                elif instr.is_store:
                    store(index, mem_addr, pc)
        executed = stop
        if stop == ordered[-1]:
            warm_branch_unit, warm_memory = branch_unit, memory
            written = arch.written
        else:
            warm_branch_unit, warm_memory = _clone(branch_unit), _clone(memory)
            written = dict(arch.written)
        # Pseudo-time ends at the window boundary: every outstanding fill
        # has logically arrived, so the detailed window (which restarts
        # the clock at 0) must not inherit pseudo-cycle completion times.
        warm_memory.clear_mshr()
        snapshots.append(WarmupState(
            instructions=executed,
            data=trace.program.data,
            regs=arch.registers(),
            written=written,
            branch_unit=warm_branch_unit,
            memory=warm_memory,
        ))
    return snapshots

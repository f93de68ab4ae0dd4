"""The shared machine state every pipeline stage mutates.

``PipelineState`` is the single source of truth for the simulated
machine: the ROB, rename substrate, release scheme, branch unit, memory
hierarchy, frontend cursor/queue, scheduling structures, and the value
state.  Stages (:mod:`repro.pipeline.stages`) receive it through the
uniform ``Stage.run(state, cycle)`` interface; observers subscribe
through the probe layer (:mod:`repro.pipeline.probes`) instead of
reaching into the core.

Everything here is public by design — diagnostics such as
:func:`repro.validate.snapshot.pipeline_snapshot` read these fields
directly, which is the supported alternative to attribute-poking the
old monolithic ``Core``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..branch import BranchUnit
from ..frontend import (
    ArchState,
    Trace,
    WrongPathSupplier,
    canonical_memory,
    memory_image,
)
from ..isa import FLAGS, Opcode, RegClass, ireg, vreg
from ..memory import MemoryHierarchy
from ..rename import CheckpointPool, RenameUnit
from ..rename.schemes import ReleaseScheme
from .config import CoreConfig
from .rob import ROBEntry, ReorderBuffer
from .stats import SimStats

if TYPE_CHECKING:
    from .warmup import WarmupState

#: Bytes per data word (the unit of store-forwarding bookkeeping).
WORD = 8


class StoreRecord:
    """In-flight store: address/value known at issue, memory written at commit.

    ``words`` holds a (word-aligned addr, value) pair per word an issued
    correct-path store writes.
    """

    __slots__ = ("seq", "issued", "words")

    def __init__(self, seq: int):
        self.seq = seq
        self.issued = False
        self.words: List[Tuple[int, int]] = []


def store_word_addrs(entry: ROBEntry) -> Tuple[int, ...]:
    """Word-aligned addresses written by a store entry."""
    addr = entry.mem_addr
    if addr is None:
        return ()
    words = 4 if entry.instr.opcode is Opcode.VST else 1
    return tuple(addr + i * WORD for i in range(words))


@dataclass(slots=True)
class PipelineState:
    """Every mutable piece of one simulated core."""

    config: CoreConfig
    trace: Trace
    rename_unit: RenameUnit
    scheme: ReleaseScheme
    branch_unit: BranchUnit
    memory: MemoryHierarchy
    rob: ReorderBuffer
    checkpoints: CheckpointPool

    cycle: int = 0
    done: bool = False
    stats: SimStats = field(default_factory=SimStats)

    # Frontend
    cursor: int = 0  # next correct-path trace index
    wrong_path: bool = False
    wrong_pc: Optional[int] = None
    wp_supplier: WrongPathSupplier = None  # type: ignore[assignment]
    wp_ras_snapshot: Optional[tuple] = None
    fetch_stall_until: int = 0
    stalled_for_resolve: bool = False
    fetch_queue: List[ROBEntry] = field(default_factory=list)
    fq_head: int = 0
    next_seq: int = 0
    last_fetch_block: int = -1

    # Scheduling
    ready: Dict[str, list] = field(default_factory=dict)
    waiters: Dict[Tuple[RegClass, int], List[ROBEntry]] = field(default_factory=dict)
    ptag_ready: Dict[RegClass, List[bool]] = field(default_factory=dict)
    completions: Dict[int, List[ROBEntry]] = field(default_factory=dict)
    rs_used: int = 0
    lq_used: int = 0
    sq_used: int = 0
    stores: Dict[int, StoreRecord] = field(default_factory=dict)
    # Oracle memory disambiguation: word address -> seqs of in-flight
    # stores writing it, oldest first.  Trace addresses are known at
    # rename, so loads wait only for *conflicting* older stores (perfect
    # memory dependence prediction, as in trace-driven Scarab), and
    # forward from the youngest older issued one.
    store_words: Dict[int, List[int]] = field(default_factory=dict)
    results: Dict[int, object] = field(default_factory=dict)

    # Value execution.  ``mem_values`` holds the words committed since
    # reset; loads fall back to ``trace.program.data``, which is shared
    # and never written.  ``start_regs`` are the architectural registers
    # the core started from (per file, in SRT-slot order).
    values: Dict[RegClass, list] = field(default_factory=dict)
    mem_values: Dict[int, int] = field(default_factory=dict)
    start_regs: Dict[RegClass, Tuple] = field(default_factory=dict)

    # Observation / control
    probes: Optional[object] = None  # ProbeManager, or None when unprobed
    interrupt_controller: Optional[object] = None
    interrupt_fetch_stall: bool = False
    last_committed_trace_seq: int = -1

    # -- derived views ----------------------------------------------------------
    @property
    def fetch_queue_depth(self) -> int:
        return len(self.fetch_queue) - self.fq_head

    def frontend_exhausted(self) -> bool:
        """No instruction left anywhere ahead of the ROB."""
        return (self.cursor >= len(self.trace.entries)
                and self.fq_head >= len(self.fetch_queue))

    # -- shared bookkeeping ------------------------------------------------------
    def drop_store_words(self, entry: ROBEntry) -> None:
        for word in store_word_addrs(entry):
            seqs = self.store_words.get(word)
            if seqs is not None:
                try:
                    seqs.remove(entry.seq)
                except ValueError:
                    pass
                if not seqs:
                    del self.store_words[word]

    # -- architectural queries ---------------------------------------------------
    def architectural_state(self, words: Optional[Iterable[int]] = None
                            ) -> ArchState:
        """Committed architectural state, built for comparisons (the
        end-of-run golden check, tests); the cycle loop never reads it.

        Memory is the full image (the data image overlaid by the
        committed stores) or, given *words*, only those addresses.
        """
        unit = self.rename_unit
        int_srt = unit.files[RegClass.INT].srt
        vec_srt = unit.files[RegClass.VEC].srt
        int_values = self.values[RegClass.INT]
        vec_values = self.values[RegClass.VEC]
        return ArchState(
            int_regs=tuple(int_values[int_srt[ireg(i).srt_slot]] for i in range(16)),
            vec_regs=tuple(vec_values[vec_srt[vreg(i).srt_slot]] for i in range(16)),
            flags=int_values[int_srt[FLAGS.srt_slot]],
            # Canonical form (zero words dropped) — the same helper the
            # golden-model comparisons apply to the emulator's state.
            memory=canonical_memory(memory_image(
                self.trace.program.data, self.mem_values, words)),
        )

    def check_conservation(self) -> None:
        """Free-list conservation: with an empty ROB every allocated ptag is
        exactly an SRT mapping."""
        if len(self.rob) != 0:
            raise RuntimeError("conservation check requires an empty ROB")
        for file in self.rename_unit.files.values():
            file.freelist.check_conservation(file.srt)


def build_state(config: CoreConfig, trace: Trace, scheme: ReleaseScheme,
                warmup: "WarmupState") -> PipelineState:
    """Construct the machine state for one run (scheme already built).

    The core adopts the :class:`~.warmup.WarmupState` checkpoint's
    predictor, caches and written words, which then belong to this core
    alone (a second use of the checkpoint raises), and primes the
    architectural registers through the initial SRT mapping, so the
    run's value execution continues exactly from the checkpoint.  The
    state keeps those registers as ``start_regs``: the end-of-run golden
    check replays the run from them.
    """
    rename_unit = RenameUnit(
        int_size=config.int_rf_size,
        vec_size=config.vec_rf_size,
        counter_bits=config.counter_bits,
        reserve=config.freelist_reserve,
    )
    scheme.attach(rename_unit)

    values = {RegClass.INT: [0] * config.int_rf_size,
              RegClass.VEC: [(0, 0, 0, 0)] * config.vec_rf_size}
    branch_unit, memory, mem_values = warmup.take()
    for file, arch_values in warmup.regs.items():
        srt = rename_unit.files[file].srt
        file_values = values[file]
        for slot, value in enumerate(arch_values):
            file_values[srt[slot]] = value

    return PipelineState(
        config=config,
        trace=trace,
        rename_unit=rename_unit,
        scheme=scheme,
        branch_unit=branch_unit,
        memory=memory,
        rob=ReorderBuffer(config.rob_size),
        checkpoints=CheckpointPool(config.checkpoints),
        wp_supplier=WrongPathSupplier(trace.program),
        ready={"alu": [], "load": [], "store": []},
        ptag_ready={
            RegClass.INT: [True] * config.int_rf_size,
            RegClass.VEC: [True] * config.vec_rf_size,
        },
        values=values,
        mem_values=mem_values,
        start_regs=warmup.regs,
    )

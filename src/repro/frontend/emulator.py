"""Functional emulator — the golden model.

Executes a :class:`~repro.isa.program.Program` architecturally (no timing)
and records the dynamic trace the cycle simulator replays, each entry
with the value it committed.  The cycle simulator's committed
architectural state must match this emulator's final state exactly, for
every release scheme — the strongest correctness check on ATR's early
release and flush-walk logic.  Every ``Core.run`` checks it at its end
by replaying the trace's recorded values through :meth:`Emulator.commit`,
and the integration tests check it against independent emulator runs.

Value semantics live in :mod:`repro.isa.semantics` and are shared with the
cycle simulator's value execution, so the two models cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..isa import (
    FLAGS,
    INT_SRT_SLOTS,
    NUM_INT_REGS,
    VEC_LANES,
    VEC_SRT_SLOTS,
    ArchReg,
    Opcode,
    Program,
    RegClass,
)
from ..isa.semantics import CONDITIONS, EVALUATORS, MASK64
from .trace import DynamicInstruction, Trace

#: 8-byte words; vector memory operations touch VEC_LANES consecutive words.
WORD_BYTES = 8


def canonical_memory(memory: Dict[int, int]) -> Dict[int, int]:
    """Drop zero-valued words from a memory image.

    Loads from unwritten addresses return zero, so an explicit zero store
    and an untouched address are architecturally indistinguishable; every
    golden-model comparison must canonicalize *both* sides with this one
    helper, or a model that materializes zeros (the emulator) diverges
    spuriously from one that filters them (the cycle core).
    """
    return {addr: value for addr, value in memory.items() if value != 0}


def memory_image(data: Mapping[int, int], written: Dict[int, int],
                 words: Optional[Iterable[int]] = None) -> Dict[int, int]:
    """The memory image: the program's *data* image overlaid by the
    *written* words, in full or only at the addresses in *words*.  Built
    only for comparisons (no model keeps one)."""
    if words is not None:
        return {addr: written[addr] if addr in written else data.get(addr, 0)
                for addr in words}
    image = dict(data.items())
    image.update(written)
    return image


@dataclass
class ArchState:
    """Architectural state snapshot: registers, flags, memory."""

    int_regs: Tuple[int, ...]
    vec_regs: Tuple[Tuple[int, ...], ...]
    flags: int
    memory: Dict[int, int] = field(default_factory=dict)

    def read(self, reg: ArchReg):
        if reg.cls is RegClass.FLAGS:
            return self.flags
        if reg.cls is RegClass.INT:
            return self.int_regs[reg.index]
        return self.vec_regs[reg.index]

    def canonicalize(self) -> "ArchState":
        """A copy whose memory has zero-valued words dropped."""
        return ArchState(
            int_regs=self.int_regs,
            vec_regs=self.vec_regs,
            flags=self.flags,
            memory=canonical_memory(self.memory),
        )

    def diff(self, other: "ArchState", limit: int = 8) -> List[str]:
        """Mismatches against *other*, as human-readable lines.

        Both sides are canonicalized first, so callers may pass raw
        states.  Returns at most *limit* lines (empty = equivalent).
        """
        mine, theirs = self.canonicalize(), other.canonicalize()
        out: List[str] = []
        for i, (a, b) in enumerate(zip(mine.int_regs, theirs.int_regs)):
            if a != b:
                out.append(f"r{i}: {a:#x} != {b:#x}")
        if mine.flags != theirs.flags:
            out.append(f"flags: {mine.flags:#x} != {theirs.flags:#x}")
        for i, (a, b) in enumerate(zip(mine.vec_regs, theirs.vec_regs)):
            if a != b:
                out.append(f"v{i}: {a} != {b}")
        for addr in sorted(set(mine.memory) | set(theirs.memory)):
            a = mine.memory.get(addr, 0)
            b = theirs.memory.get(addr, 0)
            if a != b:
                out.append(f"mem[{addr:#x}]: {a:#x} != {b:#x}")
        if len(out) > limit:
            out = out[:limit] + [f"... and {len(out) - limit} more mismatches"]
        return out


class EmulationError(RuntimeError):
    """Raised on architecturally impossible situations (bad PC, etc.)."""


# What the emulator does with a static instruction, decoded once per
# program (``Emulator._decoded``).
_VALUE, _LOAD, _VLOAD, _STORE, _VSTORE, _BRANCH, _JUMP, _CALL, _INDIRECT, \
    _NOP, _HALT = range(11)

_KINDS = {
    Opcode.LD: _LOAD,
    Opcode.VLD: _VLOAD,
    Opcode.ST: _STORE,
    Opcode.VST: _VSTORE,
    Opcode.BEQ: _BRANCH,
    Opcode.BNE: _BRANCH,
    Opcode.BLT: _BRANCH,
    Opcode.BGE: _BRANCH,
    Opcode.JMP: _JUMP,
    Opcode.CALL: _CALL,
    Opcode.JR: _INDIRECT,
    Opcode.RET: _INDIRECT,
    Opcode.NOP: _NOP,
    Opcode.HALT: _HALT,
}
_KINDS.update(dict.fromkeys(EVALUATORS, _VALUE))

#: Where each register file's SRT slots start in the flat register list.
_FILE_BASE = {RegClass.INT: 0, RegClass.VEC: INT_SRT_SLOTS}
_FLAGS_INDEX = FLAGS.srt_slot
_LANE_OFFSETS = tuple(lane * WORD_BYTES for lane in range(VEC_LANES))


def _reader(indices: Tuple[int, ...]):
    """A getter returning the registers at *indices*, in order, as one
    sequence.  ``itemgetter`` returns a bare value for a single index,
    so fewer than two indices read a slice instead."""
    if len(indices) > 1:
        return itemgetter(*indices)
    start = indices[0] if indices else 0
    return itemgetter(slice(start, start + len(indices)))


class Emulator:
    """Architectural executor for the reproduction ISA.

    All integer arithmetic is modulo 2**64; division by zero yields zero
    (the *possibility* of the exception is what matters for atomic-region
    classification, and the paper's simulated SimPoints likewise take no
    real faults).  Loads from unwritten memory return zero.

    Registers live in one list: the integer file's SRT slots (FLAGS is
    slot 16), then the vector file's.  Every value stays in
    ``0..2**64-1``: each evaluator result does, and so does every
    data-image word (:meth:`~repro.isa.program.ProgramBuilder.word`
    rejects others).  Memory is the program's data image, which nothing
    writes, overlaid by ``written``: the words stored since reset.
    """

    def __init__(self, program: Program):
        self.program = program
        self.regs: list = ([0] * INT_SRT_SLOTS
                           + [(0,) * VEC_LANES] * VEC_SRT_SLOTS)
        self.written: Dict[int, int] = {}
        self.pc = 0
        self.halted = False
        self.executed = 0
        # Each static instruction decoded once: (instruction, kind, reader
        # of its source values, destination register index or None, value
        # evaluator or branch condition).
        self._decoded = tuple(
            (instr,
             _KINDS[instr.opcode],
             _reader(tuple(_FILE_BASE[file] + slot for file, slot in instr.src_plan)),
             _FILE_BASE[instr.dest_plan[0][0]] + instr.dest_plan[0][1]
             if instr.dest_plan else None,
             EVALUATORS.get(instr.opcode) or CONDITIONS.get(instr.opcode))
            for instr in program.instructions)

    # -- state access --------------------------------------------------------
    def registers(self) -> Dict[RegClass, Tuple]:
        """Register values per file, in SRT-slot order."""
        regs = self.regs
        return {RegClass.INT: tuple(regs[:INT_SRT_SLOTS]),
                RegClass.VEC: tuple(regs[INT_SRT_SLOTS:])}

    def snapshot(self, words: Optional[Iterable[int]] = None) -> ArchState:
        """The architectural state, for comparisons (the emulation itself
        never builds it).  Memory is the full image, data image included,
        or, given *words*, only those addresses."""
        regs = self.regs
        return ArchState(
            int_regs=tuple(regs[:NUM_INT_REGS]),
            vec_regs=tuple(regs[INT_SRT_SLOTS:]),
            flags=regs[_FLAGS_INDEX],
            memory=memory_image(self.program.data, self.written, words),
        )

    # -- execution -------------------------------------------------------------
    def _execute(self, limit: int) -> List[DynamicInstruction]:
        """Execute up to *limit* instructions, stopping after HALT; return
        their dynamic records."""
        records: List[DynamicInstruction] = []
        if self.halted:
            return records
        append = records.append
        decoded = self._decoded
        size = len(decoded)
        regs = self.regs
        written = self.written
        data_word = self.program.data.get
        pc = self.pc
        seq = self.executed
        end = seq + limit
        try:
            while seq < end:
                if not 0 <= pc < size:
                    raise EmulationError(
                        f"pc {pc} outside program {self.program.name!r}")
                instr, kind, reads, dest, evaluate = decoded[pc]
                next_pc = pc + 1
                taken = False
                mem_addr = None
                result = None
                if kind == _VALUE:
                    result = regs[dest] = evaluate(reads(regs), instr.imm)
                elif kind == _BRANCH:
                    if evaluate(regs[_FLAGS_INDEX]):
                        taken = True
                        next_pc = instr.target
                elif kind == _LOAD:
                    mem_addr = (reads(regs)[0] + instr.imm) & MASK64
                    result = written.get(mem_addr)
                    if result is None:
                        result = data_word(mem_addr, 0)
                    regs[dest] = result
                elif kind == _STORE:
                    result, base = reads(regs)
                    mem_addr = (base + instr.imm) & MASK64
                    written[mem_addr] = result
                elif kind == _JUMP:
                    taken = True
                    next_pc = instr.target
                elif kind == _VLOAD:
                    mem_addr = (reads(regs)[0] + instr.imm) & MASK64
                    lanes = []
                    for offset in _LANE_OFFSETS:
                        addr = (mem_addr + offset) & MASK64
                        value = written.get(addr)
                        lanes.append(data_word(addr, 0) if value is None else value)
                    result = regs[dest] = tuple(lanes)
                elif kind == _VSTORE:
                    result, base = reads(regs)
                    mem_addr = (base + instr.imm) & MASK64
                    for offset, lane in zip(_LANE_OFFSETS, result):
                        written[(mem_addr + offset) & MASK64] = lane
                elif kind == _CALL:
                    taken = True
                    result = regs[dest] = pc + 1
                    next_pc = instr.target
                elif kind == _INDIRECT:
                    taken = True
                    next_pc = reads(regs)[0]
                elif kind == _HALT:
                    next_pc = pc
                    self.halted = True
                    end = seq + 1
                append(DynamicInstruction(seq, pc, instr, next_pc, taken,
                                          mem_addr, result))
                pc = next_pc
                seq += 1
        finally:
            self.pc = pc
            self.executed = seq
        return records

    def step(self) -> Optional[DynamicInstruction]:
        """Execute one instruction; return its dynamic record, or ``None``
        if the machine has halted."""
        records = self._execute(1)
        return records[0] if records else None

    def commit(self, record: DynamicInstruction) -> None:
        """Make *record*'s effects architectural and move past it.

        Replays a recorded trace entry (its ``result``) without executing
        anything; :func:`repro.pipeline.warmup.fast_forward` rebuilds the
        architectural state this way, and
        :meth:`repro.pipeline.Core.check_golden_state` the expected end
        state of a run.
        """
        _instr, kind, _reads, dest, _evaluate = self._decoded[record.pc]
        if dest is not None:
            self.regs[dest] = record.result
        elif kind == _STORE:
            self.written[record.mem_addr] = record.result
        elif kind == _VSTORE:
            written = self.written
            mem_addr = record.mem_addr
            for offset, lane in zip(_LANE_OFFSETS, record.result):
                written[(mem_addr + offset) & MASK64] = lane
        elif kind == _HALT:
            self.halted = True
        self.pc = record.next_pc
        self.executed += 1

    def run(self, max_instructions: int = 1_000_000) -> Trace:
        """Run until HALT or *max_instructions*; return the trace."""
        return Trace(program=self.program, entries=self._execute(max_instructions))


def run_program(program: Program, max_instructions: int = 1_000_000) -> Trace:
    """Convenience: emulate *program* from reset and return its trace."""
    return Emulator(program).run(max_instructions=max_instructions)


def final_state(program: Program, max_instructions: int = 1_000_000) -> ArchState:
    """Architectural state after emulating *program*."""
    emulator = Emulator(program)
    emulator.run(max_instructions=max_instructions)
    return emulator.snapshot()

"""Functional emulator — the golden model.

Executes a :class:`~repro.isa.program.Program` architecturally (no timing)
and records the dynamic trace the cycle simulator replays, each entry
with the value it committed (what fast-forward replays).  The cycle
simulator's committed architectural state must match this emulator's final
state exactly, for every release scheme; the integration tests enforce
that equivalence, which is the strongest correctness check on ATR's early
release and flush-walk logic.

Value semantics live in :mod:`repro.isa.semantics` and are shared with the
cycle simulator's value-execution mode, so the two models cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa import (
    NUM_INT_REGS,
    NUM_VEC_REGS,
    VEC_LANES,
    ArchReg,
    Opcode,
    Program,
    RegClass,
)
from ..isa.semantics import MASK64, branch_taken, compute
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


def canonical_state(state: ArchState) -> ArchState:
    """Canonical form of *state* for golden-model comparison."""
    return state.canonicalize()


class EmulationError(RuntimeError):
    """Raised on architecturally impossible situations (bad PC, etc.)."""


class Emulator:
    """Architectural executor for the reproduction ISA.

    All integer arithmetic is modulo 2**64; division by zero yields zero
    (the *possibility* of the exception is what matters for atomic-region
    classification, and the paper's simulated SimPoints likewise take no
    real faults).  Loads from unwritten memory return zero.
    """

    def __init__(self, program: Program):
        self.program = program
        self.int_regs = [0] * NUM_INT_REGS
        self.vec_regs = [(0,) * VEC_LANES for _ in range(NUM_VEC_REGS)]
        self.flags = 0
        self.memory: Dict[int, int] = dict(program.data)
        self.pc = 0
        self.halted = False
        self.executed = 0

    # -- state access --------------------------------------------------------
    def snapshot(self) -> ArchState:
        return ArchState(
            int_regs=tuple(self.int_regs),
            vec_regs=tuple(self.vec_regs),
            flags=self.flags,
            memory=dict(self.memory),
        )

    def read_reg(self, reg: ArchReg):
        if reg.cls is RegClass.FLAGS:
            return self.flags
        if reg.cls is RegClass.INT:
            return self.int_regs[reg.index]
        return self.vec_regs[reg.index]

    def write_reg(self, reg: ArchReg, value) -> None:
        if reg.cls is RegClass.FLAGS:
            self.flags = int(value) & MASK64
        elif reg.cls is RegClass.INT:
            self.int_regs[reg.index] = int(value) & MASK64
        else:
            self.vec_regs[reg.index] = tuple(int(v) & MASK64 for v in value)

    def _load_word(self, addr: int) -> int:
        return self.memory.get(addr & MASK64, 0)

    def _store_word(self, addr: int, value: int) -> None:
        self.memory[addr & MASK64] = value & MASK64

    # -- execution -------------------------------------------------------------
    def step(self) -> Optional[DynamicInstruction]:
        """Execute one instruction; return its dynamic record, or ``None``
        if the machine has halted."""
        if self.halted:
            return None
        instr = self.program.at(self.pc)
        if instr is None:
            raise EmulationError(f"pc {self.pc} outside program {self.program.name!r}")

        pc = self.pc
        op = instr.opcode
        taken = False
        mem_addr: Optional[int] = None
        result = None
        next_pc = pc + 1

        if op is Opcode.HALT:
            next_pc = pc
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.LD:
            mem_addr = (self.read_reg(instr.srcs[0]) + instr.imm) & MASK64
            result = self._load_word(mem_addr)
        elif op is Opcode.ST:
            mem_addr = (self.read_reg(instr.srcs[1]) + instr.imm) & MASK64
            result = self.read_reg(instr.srcs[0])
        elif op is Opcode.VLD:
            mem_addr = (self.read_reg(instr.srcs[0]) + instr.imm) & MASK64
            result = tuple(self._load_word(mem_addr + i * WORD_BYTES)
                           for i in range(VEC_LANES))
        elif op is Opcode.VST:
            mem_addr = (self.read_reg(instr.srcs[1]) + instr.imm) & MASK64
            result = self.read_reg(instr.srcs[0])
        elif op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            taken = branch_taken(op, self.flags)
            if taken:
                next_pc = instr.target
        elif op is Opcode.JMP:
            taken = True
            next_pc = instr.target
        elif op is Opcode.CALL:
            taken = True
            result = pc + 1
            next_pc = instr.target
        elif op in (Opcode.JR, Opcode.RET):
            taken = True
            next_pc = self.read_reg(instr.srcs[0]) & MASK64
        else:
            result = compute(instr, [self.read_reg(s) for s in instr.srcs])

        record = DynamicInstruction(
            seq=self.executed,
            pc=pc,
            instr=instr,
            next_pc=next_pc,
            taken=taken,
            mem_addr=mem_addr,
            result=result,
        )
        self.commit(record)
        return record

    def commit(self, record: DynamicInstruction) -> None:
        """Make *record*'s effects architectural and move past it.

        The one place emulation writes state: :meth:`step` commits what
        it just executed, and a replay commits a recorded trace's entries
        (their ``result``) without executing anything.
        """
        instr = record.instr
        op = instr.opcode
        if op is Opcode.ST:
            self._store_word(record.mem_addr, record.result)
        elif op is Opcode.VST:
            for i, lane in enumerate(record.result):
                self._store_word(record.mem_addr + i * WORD_BYTES, lane)
        elif instr.dests:
            self.write_reg(instr.dests[0], record.result)
        elif op is Opcode.HALT:
            self.halted = True
        self.pc = record.next_pc
        self.executed += 1

    def run(self, max_instructions: int = 1_000_000) -> Trace:
        """Run until HALT or *max_instructions*; return the trace."""
        entries = []
        for _ in range(max_instructions):
            record = self.step()
            if record is None:
                break
            entries.append(record)
            if record.instr.is_halt:
                break
        return Trace(program=self.program, entries=entries)


def run_program(program: Program, max_instructions: int = 1_000_000) -> Trace:
    """Convenience: emulate *program* from reset and return its trace."""
    return Emulator(program).run(max_instructions=max_instructions)


def final_state(program: Program, max_instructions: int = 1_000_000) -> ArchState:
    """Architectural state after emulating *program*."""
    emulator = Emulator(program)
    emulator.run(max_instructions=max_instructions)
    return emulator.snapshot()

"""Static instruction representation.

An :class:`Instruction` is one slot of a :class:`~repro.isa.program.Program`.
Program counters are instruction indices (the machine is word-addressed for
code); ``I_BYTES`` converts a PC into a byte address for the instruction
cache and fetch-target logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .opcodes import (
    Opcode,
    OpClass,
    breaks_atomic_region,
    breaks_region_control,
    is_conditional_branch,
    is_control,
    is_indirect,
    is_load,
    is_memory,
    is_store,
    may_except,
    op_class,
)
from .registers import ArchReg

#: Nominal instruction size in bytes (for icache / fetch-target addressing).
I_BYTES = 4


@dataclass(frozen=True)
class Instruction:
    """A static instruction.

    Attributes:
        opcode: The operation.
        dests: Architectural destination registers (0..2 entries; CMP/TEST
            write FLAGS, CALL writes the link register).
        srcs: Architectural source registers in operand order.
        imm: Immediate operand (also the displacement of memory operands).
        target: Static branch/jump/call target PC, if direct control flow.
        label: Optional label naming this instruction's address.
    """

    opcode: Opcode
    dests: Tuple[ArchReg, ...] = ()
    srcs: Tuple[ArchReg, ...] = ()
    imm: int = 0
    target: Optional[int] = None
    label: Optional[str] = None
    comment: str = field(default="", compare=False)

    # -- classification ----------------------------------------------------
    # Classification is a pure function of the opcode, but the pipeline
    # reads these flags millions of times per simulated run; precomputing
    # them as plain instance attributes (instead of properties doing a
    # dict lookup per read) keeps the fetch/rename/issue hot paths free of
    # classification work.  They are intentionally NOT dataclass fields —
    # equality, hashing, repr, ``fields()``/``asdict()`` and
    # ``dataclasses.replace`` see only the declared fields above
    # (``replace`` re-runs ``__post_init__``, so the cache never goes
    # stale).  Cached: op_class, is_control, is_conditional_branch,
    # is_indirect, is_memory, is_load, is_store, may_except,
    # breaks_region_control, breaks_atomic_region (paper section 4.2.2),
    # is_halt.
    #
    # The rename plan is cached the same way: ``src_plan`` and
    # ``dest_plan`` are the (register file, SRT slot) pair of every
    # source and destination in operand order, and ``dest_counts`` holds
    # (register file, destinations allocated from it) pairs, so renaming
    # a dynamic instance re-derives nothing from its ArchRegs.

    def __post_init__(self) -> None:
        op = self.opcode
        set_attr = object.__setattr__  # frozen dataclass
        set_attr(self, "op_class", op_class(op))
        set_attr(self, "is_control", is_control(op))
        set_attr(self, "is_conditional_branch", is_conditional_branch(op))
        set_attr(self, "is_indirect", is_indirect(op))
        set_attr(self, "is_memory", is_memory(op))
        set_attr(self, "is_load", is_load(op))
        set_attr(self, "is_store", is_store(op))
        set_attr(self, "may_except", may_except(op))
        set_attr(self, "breaks_region_control", breaks_region_control(op))
        set_attr(self, "breaks_atomic_region", breaks_atomic_region(op))
        set_attr(self, "is_halt", op is Opcode.HALT)
        set_attr(self, "src_plan", tuple((reg.cls.file, reg.srt_slot) for reg in self.srcs))
        dest_plan = tuple((reg.cls.file, reg.srt_slot) for reg in self.dests)
        set_attr(self, "dest_plan", dest_plan)
        counts: dict = {}
        for file, _slot in dest_plan:
            counts[file] = counts.get(file, 0) + 1
        set_attr(self, "dest_counts", tuple(counts.items()))

    # -- display -----------------------------------------------------------
    def render(self) -> str:
        """Assembly text for this instruction.

        Implicit operands (the FLAGS destination of CMP/TEST, the FLAGS
        source of branches and SELECT, the link register of CALL/RET) are
        omitted so the text round-trips through the assembler.
        """
        op = self.opcode
        if op in (Opcode.CMP, Opcode.TEST):
            operands = [s.name for s in self.srcs]
        elif op is Opcode.SELECT:
            operands = [self.dests[0].name] + [s.name for s in self.srcs[1:]]
        elif op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
                    Opcode.JMP, Opcode.CALL):
            operands = [f"@{self.target}"]
        elif op is Opcode.RET:
            operands = []
        elif op is Opcode.JR:
            operands = [self.srcs[0].name]
        else:
            operands = [d.name for d in self.dests] + [s.name for s in self.srcs]
            if op in (Opcode.MOVI, Opcode.LEA, Opcode.SHL, Opcode.SHR) or self.is_memory:
                operands.append(str(self.imm))
        if operands:
            return f"{op.value} {', '.join(operands)}"
        return op.value

    def __str__(self) -> str:
        return self.render()


def validate_instruction(instr: Instruction) -> None:
    """Check basic operand-shape invariants; raise ValueError on violation.

    :class:`~repro.isa.program.ProgramBuilder` runs it on every
    instruction it emits and again at ``build``, and the assembler emits
    through the builder, so every program is validated this way.
    """
    opcode = instr.opcode
    if instr.is_control and not instr.is_indirect and opcode is not Opcode.HALT:
        if instr.target is None:
            raise ValueError(f"direct control-flow without target: {instr}")
    if instr.is_indirect and not instr.srcs:
        raise ValueError(f"indirect control-flow without source register: {instr}")
    if instr.is_load and not instr.dests:
        raise ValueError(f"load without destination: {instr}")
    if instr.is_store and instr.dests:
        raise ValueError(f"store with destination: {instr}")
    if opcode in (Opcode.NOP, Opcode.HALT) and (instr.dests or instr.srcs):
        raise ValueError(f"{opcode.value} takes no operands")

"""Reproduction ISA: registers, opcodes, instructions, programs, assembler.

This is a 64-bit load/store ISA with an x86-flavored register structure
(16 integer GPRs, a renamed FLAGS register, 16 vector registers) designed so
that the register-renaming phenomena the ATR paper studies — atomic commit
regions bounded by conditional branches and exception-causing instructions —
appear exactly as they do on the paper's x86 target.
"""

from .assembler import AssemblyError, assemble, disassemble
from .instruction import I_BYTES, Instruction, validate_instruction
from .opcodes import (
    MNEMONICS,
    OpClass,
    Opcode,
    breaks_atomic_region,
    breaks_region_control,
    is_conditional_branch,
    is_control,
    is_indirect,
    is_load,
    is_memory,
    is_store,
    is_vector,
    may_except,
    op_class,
)
from .program import (
    LINK_REG,
    DataImage,
    Program,
    ProgramBuilder,
    ProgramValidationError,
)
from .registers import (
    FLAGS,
    INT_SRT_SLOTS,
    NUM_INT_REGS,
    NUM_VEC_REGS,
    VEC_LANES,
    VEC_SRT_SLOTS,
    ArchReg,
    RegClass,
    all_arch_regs,
    ireg,
    parse_reg,
    vreg,
)

__all__ = [
    "ArchReg", "RegClass", "ireg", "vreg", "FLAGS", "parse_reg",
    "all_arch_regs", "NUM_INT_REGS", "NUM_VEC_REGS", "VEC_LANES",
    "INT_SRT_SLOTS", "VEC_SRT_SLOTS",
    "Opcode", "OpClass", "op_class", "is_control", "is_conditional_branch",
    "is_indirect", "is_memory", "is_load", "is_store", "is_vector",
    "may_except", "breaks_region_control", "breaks_atomic_region",
    "MNEMONICS",
    "Instruction", "validate_instruction", "I_BYTES",
    "DataImage", "Program", "ProgramBuilder", "ProgramValidationError", "LINK_REG",
    "assemble", "disassemble", "AssemblyError",
]

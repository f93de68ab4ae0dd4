"""Pure value semantics of the ISA, shared by the functional emulator and
the cycle simulator, which computes every correct-path value with them.

Keeping these as pure functions of (instruction, source values) lets the
out-of-order pipeline compute results through *physical* registers: if a
release scheme ever frees a register too early and it gets reallocated
while still live, the corrupted value propagates to the final
architectural state and the golden-model comparison that ends every run
fails — the strongest possible end-to-end check on early-release
correctness.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, and_, mul, sub
from typing import Callable, Dict, Sequence, Tuple, Union

from .instruction import Instruction
from .opcodes import Opcode
from .registers import VEC_LANES

MASK64 = (1 << 64) - 1
FLAG_ZERO = 1
FLAG_SIGN = 2

Value = Union[int, Tuple[int, ...]]


def to_signed(value: int) -> int:
    value &= MASK64
    return value - (1 << 64) if value >> 63 else value


def flags_for(value: int) -> int:
    """FLAGS encoding of a signed comparison/test result."""
    flags = 0
    if value == 0:
        flags |= FLAG_ZERO
    if value < 0:
        flags |= FLAG_SIGN
    return flags


#: Direction of each conditional branch as a function of the FLAGS value.
CONDITIONS: Dict[Opcode, Callable[[int], bool]] = {
    Opcode.BEQ: lambda flags: bool(flags & FLAG_ZERO),
    Opcode.BNE: lambda flags: not flags & FLAG_ZERO,
    Opcode.BLT: lambda flags: bool(flags & FLAG_SIGN),
    Opcode.BGE: lambda flags: not flags & FLAG_SIGN,
}


def branch_taken(opcode: Opcode, flags: int) -> bool:
    """Direction of a conditional branch given the FLAGS source value."""
    condition = CONDITIONS.get(opcode)
    if condition is None:
        raise ValueError(f"not a conditional branch: {opcode}")
    return condition(flags)


Evaluator = Callable[[Sequence[Value], int], Value]

#: MASK64 forever, for lane-wise ``map``s to take each lane modulo 2**64
#: (the iterator holds no position, so every evaluator shares it).
_MASKS = repeat(MASK64)

#: The result of every value-producing opcode as ``(srcs, imm) -> value``:
#: *srcs* are the source operand values in operand order (FLAGS included
#: where it is an operand) and *imm* is the immediate.  This is the one
#: value table: the emulator calls it directly, and the cycle core's value
#: execution and memdep's constant folding call it through
#: :func:`compute`.  Every result of operands in ``0..2**64-1`` is again
#: in that range.
EVALUATORS: Dict[Opcode, Evaluator] = {
    Opcode.MOVI: lambda s, imm: imm & MASK64,
    Opcode.MOV: lambda s, imm: s[0],
    Opcode.ADD: lambda s, imm: (s[0] + s[1]) & MASK64,
    Opcode.SUB: lambda s, imm: (s[0] - s[1]) & MASK64,
    Opcode.AND: lambda s, imm: s[0] & s[1],
    Opcode.OR: lambda s, imm: s[0] | s[1],
    Opcode.XOR: lambda s, imm: s[0] ^ s[1],
    Opcode.MUL: lambda s, imm: (s[0] * s[1]) & MASK64,
    Opcode.DIV: lambda s, imm: (s[0] // s[1]) & MASK64 if s[1] else 0,
    Opcode.MOD: lambda s, imm: (s[0] % s[1]) & MASK64 if s[1] else 0,
    Opcode.SHL: lambda s, imm: (s[0] << (imm & 63)) & MASK64,
    Opcode.SHR: lambda s, imm: (s[0] & MASK64) >> (imm & 63),
    Opcode.NOT: lambda s, imm: ~s[0] & MASK64,
    Opcode.NEG: lambda s, imm: -s[0] & MASK64,
    Opcode.LEA: lambda s, imm: (s[0] + imm) & MASK64,
    Opcode.CMP: lambda s, imm: flags_for(to_signed(s[0]) - to_signed(s[1])),
    Opcode.TEST: lambda s, imm: flags_for(to_signed(s[0] & s[1])),
    Opcode.SELECT: lambda s, imm: s[1] if s[0] & FLAG_ZERO else s[2],
    # Lane-wise arithmetic maps C operators over the lanes: the vector
    # kernels run these every few instructions.
    Opcode.VADD: lambda s, imm: tuple(map(and_, map(add, s[0], s[1]), _MASKS)),
    Opcode.VSUB: lambda s, imm: tuple(map(and_, map(sub, s[0], s[1]), _MASKS)),
    Opcode.VMUL: lambda s, imm: tuple(map(and_, map(mul, s[0], s[1]), _MASKS)),
    Opcode.VDIV: lambda s, imm: tuple((x // y) & MASK64 if y else 0
                                      for x, y in zip(s[0], s[1])),
    Opcode.VFMA: lambda s, imm: tuple(map(and_, map(add, map(mul, s[0], s[1]), s[2]),
                                          _MASKS)),
    Opcode.VBROADCAST: lambda s, imm: (s[0] & MASK64,) * VEC_LANES,
    Opcode.VREDUCE: lambda s, imm: sum(s[0]) & MASK64,
}


def compute(instr: Instruction, srcs: Sequence[Value]) -> Value:
    """Result value of a non-memory, value-producing instruction.

    *srcs* are the source operand values in operand order (FLAGS included
    where it is an operand).  Memory operations and control flow are the
    caller's responsibility; CALL's link value is ``pc + 1`` and also
    handled by the caller.
    """
    evaluate = EVALUATORS.get(instr.opcode)
    if evaluate is None:
        raise ValueError(f"compute() does not handle {instr.opcode}")
    return evaluate(srcs, instr.imm)

"""Unit and property tests for the pure value semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import Instruction, Opcode, ireg, vreg, FLAGS
from repro.isa.registers import VEC_LANES
from repro.isa.semantics import (
    EVALUATORS,
    FLAG_SIGN,
    FLAG_ZERO,
    MASK64,
    branch_taken,
    compute,
    flags_for,
    to_signed,
)

u64 = st.integers(min_value=0, max_value=MASK64)
lanes = st.tuples(u64, u64, u64, u64)


def _instr(op, srcs=2, imm=0):
    return Instruction(opcode=op, dests=(ireg(0),), srcs=tuple(ireg(i + 1) for i in range(srcs)), imm=imm)


class TestScalar:
    @given(a=u64, b=u64)
    def test_add_wraps(self, a, b):
        assert compute(_instr(Opcode.ADD), [a, b]) == (a + b) & MASK64

    @given(a=u64, b=u64)
    def test_sub_wraps(self, a, b):
        assert compute(_instr(Opcode.SUB), [a, b]) == (a - b) & MASK64

    @given(a=u64, b=u64)
    def test_mul_wraps(self, a, b):
        assert compute(_instr(Opcode.MUL), [a, b]) == (a * b) & MASK64

    @given(a=u64)
    def test_div_by_zero_is_zero(self, a):
        assert compute(_instr(Opcode.DIV), [a, 0]) == 0
        assert compute(_instr(Opcode.MOD), [a, 0]) == 0

    @given(a=u64, b=st.integers(min_value=1, max_value=MASK64))
    def test_divmod_identity(self, a, b):
        q = compute(_instr(Opcode.DIV), [a, b])
        r = compute(_instr(Opcode.MOD), [a, b])
        assert q * b + r == a

    @given(a=u64)
    def test_not_involution(self, a):
        once = compute(_instr(Opcode.NOT, srcs=1), [a])
        twice = compute(_instr(Opcode.NOT, srcs=1), [once])
        assert twice == a

    @given(a=u64)
    def test_neg_is_sub_from_zero(self, a):
        assert compute(_instr(Opcode.NEG, srcs=1), [a]) == (-a) & MASK64

    @given(a=u64, amount=st.integers(min_value=0, max_value=63))
    def test_shifts(self, a, amount):
        assert compute(_instr(Opcode.SHL, srcs=1, imm=amount), [a]) == (a << amount) & MASK64
        assert compute(_instr(Opcode.SHR, srcs=1, imm=amount), [a]) == a >> amount

    def test_movi_uses_immediate(self):
        assert compute(_instr(Opcode.MOVI, srcs=0, imm=77), []) == 77

    def test_lea_adds_displacement(self):
        assert compute(_instr(Opcode.LEA, srcs=1, imm=-8), [100]) == 92

    @given(a=u64, b=u64)
    def test_logic_ops(self, a, b):
        assert compute(_instr(Opcode.AND), [a, b]) == a & b
        assert compute(_instr(Opcode.OR), [a, b]) == a | b
        assert compute(_instr(Opcode.XOR), [a, b]) == a ^ b


class TestFlagsAndBranches:
    def test_cmp_equal_sets_zero(self):
        flags = compute(_instr(Opcode.CMP), [5, 5])
        assert flags & FLAG_ZERO

    def test_cmp_less_sets_sign(self):
        flags = compute(_instr(Opcode.CMP), [3, 9])
        assert flags & FLAG_SIGN

    def test_cmp_signed_comparison(self):
        """-1 (as u64) must compare less than 1."""
        flags = compute(_instr(Opcode.CMP), [MASK64, 1])
        assert flags & FLAG_SIGN

    @given(a=u64, b=u64)
    def test_branch_taken_matches_comparison(self, a, b):
        flags = compute(_instr(Opcode.CMP), [a, b])
        sa, sb = to_signed(a), to_signed(b)
        assert branch_taken(Opcode.BEQ, flags) == (sa == sb)
        assert branch_taken(Opcode.BNE, flags) == (sa != sb)
        assert branch_taken(Opcode.BLT, flags) == (sa < sb)
        assert branch_taken(Opcode.BGE, flags) == (sa >= sb)

    def test_branch_taken_rejects_non_branch(self):
        with pytest.raises(ValueError):
            branch_taken(Opcode.ADD, 0)

    def test_select_picks_on_zero_flag(self):
        instr = Instruction(Opcode.SELECT, dests=(ireg(0),),
                            srcs=(FLAGS, ireg(1), ireg(2)))
        assert compute(instr, [FLAG_ZERO, 10, 20]) == 10
        assert compute(instr, [0, 10, 20]) == 20

    def test_test_is_and_based(self):
        flags = compute(_instr(Opcode.TEST), [0b1010, 0b0101])
        assert flags & FLAG_ZERO


class TestVector:
    def _vinstr(self, op, srcs):
        return Instruction(op, dests=(vreg(0),), srcs=tuple(vreg(i + 1) for i in range(srcs)))

    @given(a=lanes, b=lanes)
    def test_vadd_lanewise(self, a, b):
        out = compute(self._vinstr(Opcode.VADD, 2), [a, b])
        assert out == tuple((x + y) & MASK64 for x, y in zip(a, b))

    @given(a=lanes, b=lanes, c=lanes)
    def test_vfma_lanewise(self, a, b, c):
        out = compute(self._vinstr(Opcode.VFMA, 3), [a, b, c])
        assert out == tuple((x * y + z) & MASK64 for x, y, z in zip(a, b, c))

    @given(a=lanes)
    def test_vreduce_sums(self, a):
        instr = Instruction(Opcode.VREDUCE, dests=(ireg(0),), srcs=(vreg(1),))
        assert compute(instr, [a]) == sum(a) & MASK64

    def test_vbroadcast(self):
        instr = Instruction(Opcode.VBROADCAST, dests=(vreg(0),), srcs=(ireg(1),))
        assert compute(instr, [9]) == (9, 9, 9, 9)

    @given(a=lanes, b=lanes)
    def test_vdiv_zero_lane_safe(self, a, b):
        out = compute(self._vinstr(Opcode.VDIV, 2), [a, b])
        for x, y, o in zip(a, b, out):
            assert o == ((x // y) & MASK64 if y else 0)


def test_compute_rejects_control_flow():
    with pytest.raises(ValueError):
        compute(Instruction(Opcode.JMP, target=0), [])


@given(a=u64)
def test_to_signed_round_trips(a):
    assert to_signed(a) & MASK64 == a


def test_flags_for_cases():
    assert flags_for(0) == FLAG_ZERO
    assert flags_for(-4) == FLAG_SIGN
    assert flags_for(4) == 0


# -- the evaluator table against the if-chain it replaced -----------------------

def _reference_compute(instr, srcs):
    """The opcode if-chain ``compute`` was before the evaluator table,
    kept as the reference model."""
    op = instr.opcode
    if op is Opcode.MOVI:
        return instr.imm & MASK64
    if op is Opcode.MOV:
        return srcs[0]
    if op is Opcode.ADD:
        return (srcs[0] + srcs[1]) & MASK64
    if op is Opcode.SUB:
        return (srcs[0] - srcs[1]) & MASK64
    if op is Opcode.AND:
        return srcs[0] & srcs[1]
    if op is Opcode.OR:
        return srcs[0] | srcs[1]
    if op is Opcode.XOR:
        return srcs[0] ^ srcs[1]
    if op is Opcode.MUL:
        return (srcs[0] * srcs[1]) & MASK64
    if op is Opcode.DIV:
        return (srcs[0] // srcs[1]) & MASK64 if srcs[1] else 0
    if op is Opcode.MOD:
        return (srcs[0] % srcs[1]) & MASK64 if srcs[1] else 0
    if op is Opcode.SHL:
        return (srcs[0] << (instr.imm & 63)) & MASK64
    if op is Opcode.SHR:
        return (srcs[0] & MASK64) >> (instr.imm & 63)
    if op is Opcode.NOT:
        return ~srcs[0] & MASK64
    if op is Opcode.NEG:
        return -srcs[0] & MASK64
    if op is Opcode.LEA:
        return (srcs[0] + instr.imm) & MASK64
    if op is Opcode.CMP:
        return flags_for(to_signed(srcs[0]) - to_signed(srcs[1]))
    if op is Opcode.TEST:
        return flags_for(to_signed(srcs[0] & srcs[1]))
    if op is Opcode.SELECT:
        return srcs[1] if srcs[0] & FLAG_ZERO else srcs[2]
    if op is Opcode.VADD:
        return tuple((x + y) & MASK64 for x, y in zip(srcs[0], srcs[1]))
    if op is Opcode.VSUB:
        return tuple((x - y) & MASK64 for x, y in zip(srcs[0], srcs[1]))
    if op is Opcode.VMUL:
        return tuple((x * y) & MASK64 for x, y in zip(srcs[0], srcs[1]))
    if op is Opcode.VDIV:
        return tuple((x // y) & MASK64 if y else 0 for x, y in zip(srcs[0], srcs[1]))
    if op is Opcode.VFMA:
        return tuple((x * y + z) & MASK64 for x, y, z in zip(srcs[0], srcs[1], srcs[2]))
    if op is Opcode.VBROADCAST:
        return (srcs[0] & MASK64,) * VEC_LANES
    if op is Opcode.VREDUCE:
        return sum(srcs[0]) & MASK64
    raise ValueError(f"compute() does not handle {op}")


#: Operand shapes per value opcode: "s" a scalar, "v" a vector of lanes.
_OPERANDS = {
    Opcode.MOVI: "", Opcode.MOV: "s", Opcode.ADD: "ss", Opcode.SUB: "ss",
    Opcode.AND: "ss", Opcode.OR: "ss", Opcode.XOR: "ss", Opcode.MUL: "ss",
    Opcode.DIV: "ss", Opcode.MOD: "ss", Opcode.SHL: "s", Opcode.SHR: "s",
    Opcode.NOT: "s", Opcode.NEG: "s", Opcode.LEA: "s", Opcode.CMP: "ss",
    Opcode.TEST: "ss", Opcode.SELECT: "sss", Opcode.VADD: "vv",
    Opcode.VSUB: "vv", Opcode.VMUL: "vv", Opcode.VDIV: "vv",
    Opcode.VFMA: "vvv", Opcode.VBROADCAST: "s", Opcode.VREDUCE: "v",
}
#: Word edges, zero (division and modulo by zero) among them.
_EDGES = (0, 1, (1 << 63) - 1, 1 << 63, MASK64)
_word = st.one_of(st.sampled_from(_EDGES), u64)
_operand = {"s": _word, "v": st.tuples(*[_word] * VEC_LANES)}
#: Shift amounts of 64 and beyond, negative displacements, wide immediates.
_imm = st.one_of(st.sampled_from((0, 1, 63, 64, 65, 127, 128, 1000, -1, -8)),
                 st.integers(min_value=-(1 << 65), max_value=1 << 65))


def test_every_value_opcode_has_one_evaluator():
    assert set(EVALUATORS) == set(_OPERANDS)
    assert len(EVALUATORS) == 25


@pytest.mark.parametrize("opcode", sorted(_OPERANDS, key=lambda op: op.value))
@given(data=st.data())
def test_compute_matches_the_reference_chain(opcode, data):
    shape = _OPERANDS[opcode]
    srcs = [data.draw(_operand[kind]) for kind in shape]
    imm = data.draw(_imm)
    instr = Instruction(opcode, dests=(ireg(0),),
                        srcs=tuple(ireg(i + 1) for i in range(len(shape))),
                        imm=imm)
    expected = _reference_compute(instr, srcs)
    assert compute(instr, srcs) == expected
    assert compute(instr, tuple(srcs)) == expected

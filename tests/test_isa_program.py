"""Unit tests for Program / ProgramBuilder."""

import pytest

from repro.isa import LINK_REG, Opcode, Program, ProgramBuilder, ireg, vreg


class TestBuilder:
    def test_emit_returns_pc(self):
        b = ProgramBuilder()
        assert b.movi(ireg(1), 5) == 0
        assert b.add(ireg(2), ireg(1), ireg(1)) == 1

    def test_forward_label_resolution(self):
        b = ProgramBuilder()
        b.movi(ireg(1), 0)
        b.cmp(ireg(1), ireg(1))
        b.beq("end")          # forward reference
        b.movi(ireg(2), 1)
        b.label("end")
        b.halt()
        prog = b.build()
        assert prog.instructions[2].target == prog.labels["end"]

    def test_backward_label_resolution(self):
        b = ProgramBuilder()
        b.label("top")
        b.cmp(ireg(1), ireg(2))
        b.bne("top")
        prog = b.build()
        assert prog.instructions[1].target == 0

    def test_undefined_label_raises(self):
        b = ProgramBuilder()
        b.jmp("nowhere")
        with pytest.raises(ValueError, match="nowhere"):
            b.build()

    def test_duplicate_label_raises(self):
        b = ProgramBuilder()
        b.label("x")
        b.nop()
        with pytest.raises(ValueError, match="duplicate"):
            b.label("x")

    def test_implicit_halt_appended(self):
        b = ProgramBuilder()
        b.nop()
        prog = b.build()
        assert prog.instructions[-1].opcode is Opcode.HALT

    def test_no_double_halt(self):
        b = ProgramBuilder()
        b.halt()
        prog = b.build()
        assert len(prog) == 1

    def test_call_writes_link_register(self):
        b = ProgramBuilder()
        b.label("f")
        b.call("f")
        prog = b.build()
        assert prog.instructions[0].dests == (LINK_REG,)

    def test_ret_reads_link_register(self):
        b = ProgramBuilder()
        b.ret()
        prog = b.build()
        assert prog.instructions[0].srcs == (LINK_REG,)

    def test_numeric_target(self):
        b = ProgramBuilder()
        b.nop()
        b.jmp(0)
        prog = b.build()
        assert prog.instructions[1].target == 0

    def test_data_words(self):
        b = ProgramBuilder()
        b.words(0x100, [7, 8, 9])
        b.word(0x200, 42)
        prog = b.build()
        assert prog.data[0x100] == 7
        assert prog.data[0x110] == 9
        assert prog.data[0x200] == 42

    def test_data_words_span_the_64_bit_range(self):
        top = (1 << 64) - 1
        b = ProgramBuilder()
        b.word(0, top)
        b.word(top, 0)
        b.words(top - 8, [0, top])
        b.words(0x300, [])
        assert b.build().data == {0: top, top - 8: 0, top: top}

    @pytest.mark.parametrize("addr, value", [
        (0x100, -1), (0x100, 1 << 64), (-8, 1), (1 << 64, 1)])
    def test_word_outside_64_bits_rejected(self, addr, value):
        with pytest.raises(ValueError, match="outside 0..2"):
            ProgramBuilder().word(addr, value)

    @pytest.mark.parametrize("addr, values", [
        (0x100, [1, -1, 2]), (0x100, [1, 1 << 64]), (-8, [1]),
        ((1 << 64) - 8, [1, 2])])
    def test_words_outside_64_bits_rejected(self, addr, values):
        b = ProgramBuilder()
        with pytest.raises(ValueError, match="outside 0..2"):
            b.words(addr, values)
        assert b.build().data == {}

    def test_label_attaches_to_next_instruction(self):
        b = ProgramBuilder()
        b.nop()
        b.label("here")
        b.nop()
        prog = b.build()
        assert prog.instructions[1].label == "here"
        assert prog.labels["here"] == 1


class TestProgram:
    def test_at_in_range(self):
        b = ProgramBuilder()
        b.movi(ireg(1), 7)
        prog = b.build()
        assert prog.at(0).opcode is Opcode.MOVI

    def test_at_out_of_range_returns_none(self):
        prog = ProgramBuilder().build()
        assert prog.at(100) is None
        assert prog.at(-1) is None

    def test_len_and_iter(self):
        b = ProgramBuilder()
        b.nop()
        b.nop()
        prog = b.build()
        assert len(prog) == 3  # 2 nops + implicit halt
        assert len(list(prog)) == 3

    def test_disassemble_contains_labels(self):
        b = ProgramBuilder()
        b.label("entry")
        b.nop()
        prog = b.build()
        assert "entry:" in prog.disassemble()

    def test_vector_builder_ops(self):
        b = ProgramBuilder()
        b.vfma(vreg(0), vreg(1), vreg(2), vreg(3))
        prog = b.build()
        assert prog.instructions[0].srcs == (vreg(1), vreg(2), vreg(3))

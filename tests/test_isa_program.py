"""Unit tests for Program / ProgramBuilder."""

from itertools import count

import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_words_stride_must_be_positive(self):
        with pytest.raises(ValueError, match="stride"):
            ProgramBuilder().words(0x100, [1], stride=0)

    #: A run of ``word`` and ``words`` calls over a small address window,
    #: so that runs overlap, interleave and shadow single words.
    _DATA_OPS = st.lists(st.one_of(
        st.tuples(st.just("word"), st.integers(0, 96).map(lambda i: 4 * i),
                  st.integers(0, (1 << 64) - 1)),
        st.tuples(st.just("words"), st.integers(0, 96).map(lambda i: 4 * i),
                  st.lists(st.integers(0, (1 << 64) - 1), max_size=12),
                  st.sampled_from([4, 8, 12, 16, 64]))), max_size=8)

    @given(ops=_DATA_OPS)
    def test_data_image_equals_the_dict_of_its_writes(self, ops):
        """Later writes win, whether a word, a run or a run's single word
        overlaps an earlier one; ``get``, ``in``, iteration and ``len``
        agree with a dict that took the same writes in order."""
        b = ProgramBuilder()
        expected = {}
        for op in ops:
            if op[0] == "word":
                _, addr, value = op
                b.word(addr, value)
                expected[addr] = value
            else:
                _, addr, values, stride = op
                b.words(addr, values, stride=stride)
                expected.update(zip(count(addr, stride), values))
        image = b.build().data
        assert image == expected
        assert len(image) == len(expected)
        assert sorted(image) == sorted(expected)
        assert sorted(image.values()) == sorted(expected.values())
        for addr in range(0, 4 * 110, 2):
            assert image.get(addr, -1) == expected.get(addr, -1)
            assert (addr in image) == (addr in expected)

    def test_runs_become_blocks_and_later_writes_do_not_reach_a_built_image(self):
        b = ProgramBuilder()
        b.words(0x1000, range(4), stride=64)
        b.words(0x1008, range(10, 14), stride=64)   # interleaved, no overlap
        b.word(0x2000, 5)
        first = b.build()
        b.word(0x1000, 99)
        b.words(0x1008, [7])
        assert len(first.data.blocks) == 2
        assert first.data[0x1000] == 0 and first.data[0x1008] == 10
        assert first.data[0x10c8] == 13 and 0x1010 not in first.data
        assert dict(first.data.items()) == {
            **dict(zip(range(0x1000, 0x1100, 64), range(4))),
            **dict(zip(range(0x1008, 0x1108, 64), range(10, 14))),
            0x2000: 5}
        second = b.build().data
        assert second[0x1000] == 99 and second[0x1008] == 7
        assert second[0x1048] == 11

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

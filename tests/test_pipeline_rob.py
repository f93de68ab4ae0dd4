"""Reorder buffer unit tests."""

import pytest

from repro.isa import Instruction, Opcode, ireg
from repro.pipeline import ReorderBuffer, ROBEntry


def _entry(seq):
    instr = Instruction(Opcode.ADD, dests=(ireg(1),), srcs=(ireg(2), ireg(3)))
    return ROBEntry(seq=seq, trace_seq=seq, pc=seq, instr=instr, next_pc=seq + 1)


def test_append_and_len():
    rob = ReorderBuffer(4)
    rob.append(_entry(0))
    rob.append(_entry(1))
    assert len(rob) == 2
    assert rob.free_slots == 2


def test_overflow_raises():
    rob = ReorderBuffer(1)
    rob.append(_entry(0))
    assert rob.is_full
    with pytest.raises(RuntimeError):
        rob.append(_entry(1))


def test_head_and_pop():
    rob = ReorderBuffer(4)
    rob.append(_entry(0))
    rob.append(_entry(1))
    assert rob.head().seq == 0
    assert rob.pop_head().seq == 0
    assert rob.head().seq == 1


def test_flush_younger_orders_young_first():
    rob = ReorderBuffer(8)
    for seq in range(5):
        rob.append(_entry(seq))
    flushed = rob.flush_younger(2)
    assert [e.seq for e in flushed] == [4, 3]
    assert all(e.squashed for e in flushed)
    assert len(rob) == 3


def test_flush_nothing_younger():
    rob = ReorderBuffer(8)
    rob.append(_entry(0))
    assert rob.flush_younger(5) == []


def test_precommit_offset_tracks_commits():
    rob = ReorderBuffer(8)
    for seq in range(3):
        rob.append(_entry(seq))
    rob.precommit_offset = 2
    rob.pop_head()
    assert rob.precommit_offset == 1
    assert rob.at_offset(rob.precommit_offset).seq == 2


def test_precommit_offset_clamped_by_flush():
    rob = ReorderBuffer(8)
    for seq in range(5):
        rob.append(_entry(seq))
    rob.precommit_offset = 4
    rob.flush_younger(1)
    assert rob.precommit_offset <= len(rob)


def test_compaction_preserves_contents():
    rob = ReorderBuffer(8)
    for seq in range(6000):  # cross the compaction threshold
        rob.append(_entry(seq))
        assert rob.pop_head().seq == seq
    assert len(rob) == 0


def test_in_flight_iterates_oldest_first():
    rob = ReorderBuffer(8)
    for seq in range(3):
        rob.append(_entry(seq))
    rob.pop_head()
    assert [e.seq for e in rob.in_flight()] == [1, 2]

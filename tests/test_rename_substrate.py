"""Free list, SRT, checkpoint pool, PRT and rename-unit tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, Opcode, RegClass, ireg
from repro.rename import (
    CheckpointPool,
    DoubleFreeError,
    FreeList,
    FreeListEmptyError,
    PhysRegEntry,
    PhysRegTable,
    RenameFile,
    RenameUnit,
)


class TestFreeList:
    def test_allocates_all_then_empty(self):
        fl = FreeList(4)
        ptags = [fl.allocate() for _ in range(4)]
        assert sorted(ptags) == [0, 1, 2, 3]
        with pytest.raises(FreeListEmptyError):
            fl.allocate()

    def test_free_returns_for_reuse(self):
        fl = FreeList(2)
        a = fl.allocate()
        fl.allocate()
        fl.free(a)
        assert fl.allocate() == a

    def test_fifo_order(self):
        fl = FreeList(3)
        a, b, _c = fl.allocate(), fl.allocate(), fl.allocate()
        fl.free(b)
        fl.free(a)
        assert fl.allocate() == b
        assert fl.allocate() == a

    def test_double_free_detected(self):
        fl = FreeList(2)
        a = fl.allocate()
        fl.free(a)
        with pytest.raises(DoubleFreeError):
            fl.free(a)

    def test_free_of_never_allocated_detected(self):
        fl = FreeList(2)
        with pytest.raises(DoubleFreeError):
            fl.free(0)

    def test_out_of_range_rejected(self):
        fl = FreeList(2)
        with pytest.raises(ValueError):
            fl.free(5)

    def test_watermark_tracks_minimum(self):
        fl = FreeList(4)
        fl.allocate()
        fl.allocate()
        a = fl.allocate()
        fl.free(a)
        assert fl.min_free_watermark == 1

    def test_conservation_check_passes(self):
        fl = FreeList(4)
        live = [fl.allocate(), fl.allocate()]
        fl.check_conservation(live)

    def test_conservation_detects_leak(self):
        fl = FreeList(4)
        fl.allocate()
        with pytest.raises(AssertionError, match="leaked"):
            fl.check_conservation([])

    def test_conservation_detects_overlap(self):
        fl = FreeList(4)
        a = fl.allocate()
        fl.free(a)
        with pytest.raises(AssertionError, match="both"):
            fl.check_conservation([a])

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(st.booleans(), max_size=200))
    def test_conservation_invariant_under_random_ops(self, ops):
        """Property: alloc/free in any order preserves the partition."""
        fl = FreeList(8)
        live = []
        for do_alloc in ops:
            if do_alloc and fl.free_count:
                live.append(fl.allocate())
            elif live:
                fl.free(live.pop(0))
            fl.check_conservation(live)
            assert fl.free_count + len(live) == 8


class TestRAT:
    """Each file's SRT is a plain list indexed by SRT slot."""

    def test_initial_identity(self):
        assert RenameFile("int", 4, 8).srt == [0, 1, 2, 3]

    def test_write_returns_previous(self):
        unit = RenameUnit(int_size=24, vec_size=20)
        srt = unit.files[RegClass.INT].srt
        before = srt[ireg(2).srt_slot]
        instr = Instruction(Opcode.ADD, dests=(ireg(2),), srcs=(ireg(3), ireg(4)))
        (record,) = unit.allocate_dests(instr)
        assert record.prev_ptag == before
        assert srt[ireg(2).srt_slot] == record.new_ptag

    def test_restore_keeps_the_mapping_list(self, branchy_program):
        """The rename unit reads the SRT lists directly, so the flush
        walk must write into them rather than replace them."""
        from repro.frontend import run_program
        from repro.pipeline import Core, fast_test_config

        config = fast_test_config(predictor="always_taken")
        core = Core(config, run_program(branchy_program))
        unit = core.rename_unit
        lists = {cls: file.srt for cls, file in unit.files.items()}
        assert core.run().flushes > 0
        for cls, file in unit.files.items():
            assert file.srt is lists[cls] is unit._srt[cls]


class TestCheckpointPool:
    def test_take_until_full(self):
        pool = CheckpointPool(capacity=2)
        assert pool.take(1)
        assert pool.take(2)
        assert not pool.take(3)
        assert pool.taken == 2
        assert pool.seqs == [1, 2]

    def test_exact_lookup(self):
        pool = CheckpointPool()
        pool.take(5)
        assert pool.has_exact(5)
        assert not pool.has_exact(6)

    def test_release_older_equal(self):
        pool = CheckpointPool()
        pool.take(2)
        pool.take(6)
        pool.release_older_equal(2)
        assert not pool.has_exact(2)
        assert pool.has_exact(6)

    def test_squash_younger(self):
        pool = CheckpointPool()
        pool.take(2)
        pool.take(6)
        pool.squash_younger(2)
        assert pool.has_exact(2)
        assert not pool.has_exact(6)


class TestPhysRegTable:
    def test_counter_tracks_consumers(self):
        prt = PhysRegTable(8)
        prt.on_allocate(3)
        prt.add_consumer(3)
        prt.add_consumer(3)
        assert prt.consumers(3) == 2
        assert not prt.remove_consumer(3)
        assert prt.remove_consumer(3)  # reached zero

    def test_counter_saturates_sticky(self):
        prt = PhysRegTable(8, counter_bits=3)
        prt.on_allocate(0)
        for _ in range(10):
            prt.add_consumer(0)
        assert prt.consumers(0) == prt.overflow
        assert not prt.remove_consumer(0)  # sticky, never reaches zero
        assert prt.consumers(0) == prt.overflow
        assert prt.is_no_early_release(0)

    def test_three_bit_counter_tracks_six(self):
        prt = PhysRegTable(8, counter_bits=3)
        prt.on_allocate(0)
        for _ in range(6):
            prt.add_consumer(0)
        assert prt.consumers(0) == 6
        assert not prt.is_no_early_release(0)

    def test_ner_separate_from_count(self):
        prt = PhysRegTable(8)
        prt.on_allocate(0)
        prt.add_consumer(0)
        prt.mark_ner(0)
        assert prt.is_no_early_release(0)
        assert prt.consumers(0) == 1  # count survives NER marking

    def test_bulk_marking(self):
        prt = PhysRegTable(8)
        for p in range(4):
            prt.on_allocate(p)
        assert prt.bulk_no_early_release([0, 1, 2]) == 3
        assert prt.bulk_no_early_release([0, 1, 2]) == 0  # idempotent
        assert not prt.is_no_early_release(3)

    def test_allocation_resets_state(self):
        prt = PhysRegTable(8)
        prt.on_allocate(0)
        prt.add_consumer(0)
        prt.mark_ner(0)
        prt.mark_redefined(0, 5)
        prt.on_allocate(0)
        assert prt.consumers(0) == 0
        assert not prt.is_no_early_release(0)
        assert not prt.is_redefined(0)
        assert not prt.is_written(0)

    def test_epoch_bumps_per_allocation(self):
        prt = PhysRegTable(8)
        prt.on_allocate(0)
        e1 = prt.epoch(0)
        prt.on_allocate(0)
        assert prt.epoch(0) == e1 + 1

    def test_redefined_visibility_delay(self):
        prt = PhysRegTable(8)
        prt.on_allocate(0)
        prt.mark_redefined(0, visible_cycle=10)
        assert prt.is_redefined(0)
        assert not prt.redefined_visible(0, 9)
        assert prt.redefined_visible(0, 10)

    def test_written_gate(self):
        prt = PhysRegTable(8)
        prt.on_allocate(0)
        assert not prt.is_written(0)
        prt.mark_written(0)
        assert prt.is_written(0)

    def test_initial_entries_born_ready(self):
        prt = PhysRegTable(8)
        assert prt.is_written(0)  # never allocated: architectural state

    def test_undo_consumer_skips_overflow_and_zero(self):
        prt = PhysRegTable(8, counter_bits=2)
        prt.on_allocate(0)
        prt.undo_consumer(0)  # at zero: no-op
        assert prt.consumers(0) == 0
        for _ in range(5):
            prt.add_consumer(0)
        prt.undo_consumer(0)  # at overflow: no-op
        assert prt.consumers(0) == prt.overflow

    def test_minimum_counter_width(self):
        with pytest.raises(ValueError):
            PhysRegTable(8, counter_bits=1)


class TestRenameUnit:
    def test_allocation_resets_the_prt_entry_as_on_allocate_does(self):
        """allocate_dests writes PhysRegTable.on_allocate's reset out in
        line; both must leave the entry in the same state."""
        unit = RenameUnit(int_size=24, vec_size=20)
        file = unit.files[RegClass.INT]
        ptag = file.freelist.queue[0]
        reference = PhysRegTable(file.size)
        for prt in (file.prt, reference):
            prt.add_consumer(ptag)
            prt.add_consumer(ptag)
            prt.mark_ner(ptag)
            prt.mark_redefined(ptag, 3)
            prt.entries[ptag].early_released = True
        instr = Instruction(Opcode.ADD, dests=(ireg(1),), srcs=(ireg(2), ireg(3)))
        (record,) = unit.allocate_dests(instr)
        reference.on_allocate(ptag)
        assert record.new_ptag == ptag
        assert record.new_epoch == reference.epoch(ptag)
        entry, expected = file.prt.entries[ptag], reference.entries[ptag]
        for field in PhysRegEntry.__slots__:
            assert getattr(entry, field) == getattr(expected, field), field

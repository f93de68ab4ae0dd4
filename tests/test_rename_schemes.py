"""Scheme unit tests: drive the release schemes through their hook API
directly, without the pipeline, to pin down the ATR mechanisms —
claiming, bulk marking, delayed redefinition, and the two-bit flush walk
(including the reallocation-during-flush corner cases)."""

import pytest

from repro.isa import FLAGS, Instruction, Opcode, RegClass, ireg
from repro.rename import RenameUnit, make_scheme
from repro.rename.schemes import SCHEME_NAMES


class FakeEntry:
    """Stands in for a ROB entry in scheme unit tests."""

    def __init__(self, seq, instr):
        self.seq = seq
        self.instr = instr
        self.dests = []
        self.src_ptags = []
        self.issued = False
        self.completed = False
        self.precommitted = False
        self.squashed = False
        self.wrong_path = False


class Machine:
    """Minimal rename-stage driver around a scheme."""

    def __init__(self, scheme_name, int_size=32, delay=0):
        self.unit = RenameUnit(int_size=int_size, vec_size=24, reserve=0)
        self.scheme = make_scheme(scheme_name, redefine_delay=delay)
        self.scheme.attach(self.unit)
        self.cycle = 0
        self.seq = 0

    def tick(self, cycles=1):
        for _ in range(cycles):
            self.cycle += 1
            self.scheme.tick(self.cycle)

    def rename(self, opcode, dest=None, srcs=()):
        instr = Instruction(
            opcode,
            dests=(dest,) if dest else (),
            srcs=tuple(srcs),
            target=0 if opcode in (Opcode.BEQ, Opcode.BNE, Opcode.JMP) else None,
        )
        entry = FakeEntry(self.seq, instr)
        self.seq += 1
        entry.src_ptags = self.unit.lookup_sources(instr)
        self.scheme.pre_rename(entry, self.cycle)
        entry.dests = self.unit.allocate_dests(instr)
        self.scheme.post_rename(entry, self.cycle)
        return entry

    def issue(self, entry):
        entry.issued = True
        self.scheme.on_issue(entry, self.cycle)

    def complete(self, entry):
        entry.completed = True
        for record in entry.dests:
            prt = self.unit.files[record.file].prt
            prt.mark_written(record.new_ptag)
            self.scheme.on_writeback(record.file, record.new_ptag, self.cycle)

    def run_to_completion(self, entry):
        self.issue(entry)
        self.complete(entry)

    def precommit(self, entry):
        entry.precommitted = True
        self.scheme.on_precommit(entry, self.cycle)

    def commit(self, entry):
        self.scheme.on_commit(entry, self.cycle)

    def flush(self, entries_young_to_old):
        for entry in entries_young_to_old:
            entry.squashed = True
            for record in entry.dests:
                self.unit.files[record.file].srt[record.slot] = record.prev_ptag
        self.scheme.on_flush(entries_young_to_old, self.cycle)

    def int_free(self):
        return self.unit.files[RegClass.INT].freelist.free_count

    def is_free(self, ptag):
        return self.unit.files[RegClass.INT].freelist.is_free(ptag)


R1, R2, R3 = ireg(1), ireg(2), ireg(3)


def _flush_point(m):
    """Rename the mispredicted branch that will be the flush point.

    Any real flush is caused by a breaker, whose bulk marking guarantees
    no flushed instruction claimed a surviving register; scheme flush
    tests must reproduce that structure.
    """
    branch = m.rename(Opcode.BNE, srcs=[FLAGS])
    m.run_to_completion(branch)
    return branch



class TestBaseline:
    def test_frees_only_at_commit(self):
        m = Machine("baseline")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        old = producer.dests[0].prev_ptag
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        m.run_to_completion(producer)
        m.run_to_completion(redefiner)
        assert not m.is_free(old)
        m.commit(producer)
        assert m.is_free(old)

    def test_flush_reclaims_new_ptags(self):
        m = Machine("baseline")
        before = m.int_free()
        e1 = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        e2 = m.rename(Opcode.SUB, dest=R2, srcs=[R1, R3])
        m.flush([e2, e1])
        assert m.int_free() == before


class TestAtrClaiming:
    def test_atomic_chain_released_at_redefine(self):
        """alloc -> consume -> redefine with no breakers: freed without
        any commit (the paper's Figure 8)."""
        m = Machine("atr")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        consumer = m.rename(Opcode.SUB, dest=R2, srcs=[R1, R3])
        m.run_to_completion(consumer)
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        assert m.is_free(p1)
        assert redefiner.dests[0].release_prev is None  # claimed
        # p1 plus the architectural mappings displaced by producer/consumer
        assert m.scheme.stats.atr_frees >= 1

    def test_branch_between_blocks_claim(self):
        m = Machine("atr")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        m.rename(Opcode.BNE, srcs=[FLAGS])       # breaker
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        assert not m.is_free(p1)
        assert redefiner.dests[0].release_prev == p1  # commit will free

    @pytest.mark.parametrize("breaker,kwargs", [
        (Opcode.LD, dict(dest=R3, srcs=[R2])),
        (Opcode.ST, dict(srcs=[R2, R3])),
        (Opcode.DIV, dict(dest=R3, srcs=[R2, R3])),
        (Opcode.JR, dict(srcs=[R2])),
    ])
    def test_all_breaker_kinds_block_claim(self, breaker, kwargs):
        m = Machine("atr")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        m.rename(breaker, **kwargs)
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        assert redefiner.dests[0].release_prev == p1

    def test_direct_jump_does_not_block(self):
        m = Machine("atr")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        m.run_to_completion(producer)
        m.rename(Opcode.JMP)
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        assert redefiner.dests[0].release_prev is None

    def test_region_may_begin_with_breaker(self):
        """A load's own destination is not marked by its own bulk scan."""
        m = Machine("atr")
        load = m.rename(Opcode.LD, dest=R1, srcs=[R2])
        p1 = load.dests[0].new_ptag
        m.run_to_completion(load)
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        assert redefiner.dests[0].release_prev is None
        assert m.is_free(p1)

    def test_release_waits_for_consumers(self):
        m = Machine("atr")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        consumer = m.rename(Opcode.SUB, dest=R2, srcs=[R1, R3])
        m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])  # redefine (claims)
        assert not m.is_free(p1)  # consumer not issued yet
        m.issue(consumer)
        assert m.is_free(p1)

    def test_release_waits_for_producer_writeback(self):
        m = Machine("atr")
        producer = m.rename(Opcode.MUL, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.issue(producer)  # issued but value not written yet
        m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        assert not m.is_free(p1)
        m.complete(producer)
        assert m.is_free(p1)

    def test_seventh_consumer_saturates_and_blocks(self):
        m = Machine("atr")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        consumers = [m.rename(Opcode.ADD, dest=R2, srcs=[R1, R1]) for _ in range(4)]
        for consumer in consumers:
            m.run_to_completion(consumer)  # 8 source reads > 6
        m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        assert not m.is_free(p1)

    def test_redefine_delay_postpones_release(self):
        m = Machine("atr", delay=2)
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        assert not m.is_free(p1)
        m.tick()  # +1
        assert not m.is_free(p1)
        m.tick()  # +2: signal visible
        assert m.is_free(p1)


class TestAtrFlushWalk:
    def test_released_ptag_not_double_freed(self):
        m = Machine("atr")
        _flush_point(m)
        before = m.int_free()
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        assert m.is_free(p1)
        m.flush([redefiner, producer])  # no DoubleFreeError
        assert m.int_free() == before

    def test_unreleased_claim_is_reclaimed(self):
        """Claimed but consumers never issued: the walk must free it."""
        m = Machine("atr")
        _flush_point(m)
        before = m.int_free()
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        m.run_to_completion(producer)
        consumer = m.rename(Opcode.SUB, dest=R2, srcs=[R1, R3])
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        m.flush([redefiner, consumer, producer])
        assert m.int_free() == before

    def test_unwritten_producer_claim_reclaimed(self):
        m = Machine("atr")
        _flush_point(m)
        before = m.int_free()
        producer = m.rename(Opcode.MUL, dest=R1, srcs=[R2, R3])
        m.issue(producer)  # never completes (flushed)
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.flush([redefiner, producer])
        assert m.int_free() == before

    def test_reallocation_during_flush_window(self):
        """p1 released, reallocated to a younger (also flushed)
        instruction: exactly one free of p1 during the walk."""
        m = Machine("atr", int_size=20)  # tight file to force quick reuse
        _flush_point(m)
        before = m.int_free()
        flushed = []
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        flushed.append(producer)
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        flushed.append(redefiner)
        assert m.is_free(p1)
        # Burn through the free list until p1 is reallocated.
        reused = None
        for _ in range(m.int_free()):
            entry = m.rename(Opcode.ADD, dest=R2, srcs=[R3, R3])
            m.run_to_completion(entry)
            flushed.append(entry)
            if entry.dests[0].new_ptag == p1:
                reused = entry
                break
        assert reused is not None, "p1 was not reallocated"
        m.flush(list(reversed(flushed)))
        assert m.int_free() == before

    def test_pending_delay_signal_drained_on_flush(self):
        m = Machine("atr", delay=2)
        _flush_point(m)
        before = m.int_free()
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        m.run_to_completion(producer)
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        # Flush arrives before the redefinition signal becomes visible.
        m.flush([redefiner, producer])
        assert m.int_free() == before

    def test_chained_claims_same_register(self):
        m = Machine("atr")
        _flush_point(m)
        before = m.int_free()
        entries = []
        for _ in range(4):
            entry = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
            m.run_to_completion(entry)
            entries.append(entry)
        m.flush(list(reversed(entries)))
        assert m.int_free() == before


class TestNonSpec:
    def test_release_needs_precommit(self):
        m = Machine("nonspec_er")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        assert not m.is_free(p1)
        m.precommit(redefiner)
        assert m.is_free(p1)
        assert m.scheme.stats.nonspec_frees == 1

    def test_release_on_late_count_zero(self):
        m = Machine("nonspec_er")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        consumer = m.rename(Opcode.SUB, dest=R2, srcs=[R1, R3])
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        m.precommit(redefiner)
        assert not m.is_free(p1)  # consumer outstanding
        m.issue(consumer)
        assert m.is_free(p1)

    def test_no_double_free_at_commit(self):
        m = Machine("nonspec_er")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        m.run_to_completion(producer)
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        m.precommit(redefiner)
        m.commit(redefiner)  # must not double free

    def test_works_across_branches(self):
        """nonspec-ER covers non-atomic regions (unlike ATR)."""
        m = Machine("nonspec_er")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        m.rename(Opcode.BNE, srcs=[FLAGS])
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        m.precommit(redefiner)
        assert m.is_free(p1)

    def test_flush_restores_counts(self):
        m = Machine("nonspec_er")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        ghost = m.rename(Opcode.SUB, dest=R2, srcs=[R1, R3])  # never issues
        m.flush([ghost])
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        m.precommit(redefiner)
        assert m.is_free(p1)  # stale increment was undone


class TestCombined:
    def test_atomic_released_before_precommit(self):
        m = Machine("combined")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        assert m.is_free(p1)
        # one free for p1 plus one for the displaced architectural mapping
        assert m.scheme.stats.atr_frees == 2

    def test_non_atomic_released_at_precommit(self):
        m = Machine("combined")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        m.rename(Opcode.BNE, srcs=[FLAGS])
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        assert not m.is_free(p1)
        m.precommit(redefiner)
        assert m.is_free(p1)
        assert m.scheme.stats.nonspec_frees == 1

    def test_counts_survive_bulk_marking(self):
        """The NER bit must not destroy the shared consumer count."""
        m = Machine("combined")
        producer = m.rename(Opcode.ADD, dest=R1, srcs=[R2, R3])
        p1 = producer.dests[0].new_ptag
        m.run_to_completion(producer)
        consumer = m.rename(Opcode.SUB, dest=R2, srcs=[R1, R3])
        m.rename(Opcode.BNE, srcs=[FLAGS])  # bulk-marks p1
        redefiner = m.rename(Opcode.ADD, dest=R1, srcs=[R3, R3])
        m.run_to_completion(redefiner)
        m.precommit(redefiner)
        assert not m.is_free(p1)  # consumer still outstanding
        m.issue(consumer)
        assert m.is_free(p1)      # count reached zero -> nonspec frees


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_factory_builds_every_scheme(name):
    scheme = make_scheme(name)
    assert scheme.name == name


def test_factory_rejects_unknown():
    with pytest.raises(ValueError):
        make_scheme("magic")

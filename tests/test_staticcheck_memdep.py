"""Value-set analysis over addresses: strided intervals, alias
verdicts, fixpoint determinism, and dynamic must-alias soundness."""

import random

import pytest

from repro.frontend.emulator import Emulator
from repro.isa import ProgramBuilder, ireg, vreg
from repro.staticcheck import (
    MAY,
    MUST,
    NO,
    StridedInterval,
    analyze_memdep,
    analyze_regions,
    build_cfg,
)
from repro.staticcheck.memdep import (
    ABS,
    TOP,
    _footprints_disjoint,
    si_const,
    vs_const,
)
from repro.workloads import builder_for

r = ireg
v = vreg


def _si(stride, phase, lo, hi):
    return StridedInterval(stride, phase, lo, hi)


class TestStridedInterval:
    def test_singleton_shift_and_add(self):
        assert si_const(8).shift(8) == si_const(16)
        assert si_const(8).add(si_const(-8)) == si_const(0)

    def test_add_takes_gcd_stride(self):
        a = _si(8, 0, 0, 32)
        b = _si(12, 0, 0, 24)
        out = a.add(b)
        assert out.stride == 4 and out.lo == 0 and out.hi == 56

    def test_negate_is_involutive(self):
        a = _si(8, 3, -16, 40)
        assert a.negate().negate() == a

    def test_join_of_two_constants(self):
        out = si_const(8).join(si_const(24))
        assert (out.stride, out.phase, out.lo, out.hi) == (16, 8, 8, 24)

    def test_join_reconciles_phases_by_gcd(self):
        out = _si(8, 0, 0, 64).join(_si(8, 4, 4, 68))
        assert out.stride == 4 and out.lo == 0 and out.hi == 68

    def test_join_is_an_upper_bound(self):
        a, b = _si(16, 0, 0, 64), si_const(24)
        out = a.join(b)
        # every member of both operands satisfies the joined constraints
        for x in (0, 16, 32, 48, 64, 24):
            assert out.lo <= x <= out.hi and x % out.stride == out.phase

    def test_abstract_keeps_singletons_exact(self):
        assert si_const(12345).abstract() == si_const(12345)

    def test_abstract_rounds_outward(self):
        out = _si(12, 3, -100, 100).abstract()
        assert out.stride == 4          # largest power-of-two divisor
        assert out.lo == -128 and out.hi == 128

    def test_abstract_is_idempotent(self):
        a = _si(24, 5, 7, 1000).abstract()
        assert a.abstract() == a

    def test_abstract_is_extensive(self):
        """x in gamma(si) implies x in gamma(si.abstract())."""
        si = _si(12, 6, 6, 90)
        out = si.abstract()
        for x in range(si.lo, si.hi + 1):
            if x % si.stride == si.phase:
                assert out.lo <= x <= out.hi
                assert x % out.stride == out.phase % out.stride

    def test_footprint_disjoint_by_range(self):
        assert _footprints_disjoint(si_const(0), 8, si_const(8), 8)
        assert not _footprints_disjoint(si_const(0), 8, si_const(7), 8)

    def test_footprint_disjoint_by_congruence(self):
        # stride-16 streams at phases 0 and 8, both 8 bytes wide
        a = _si(16, 0, None, None)
        b = _si(16, 8, None, None)
        assert _footprints_disjoint(a, 8, b, 8)
        # widen one access and the proof must fail
        assert not _footprints_disjoint(a, 16, b, 8)

    def test_congruence_needs_wraparound_safety(self):
        # gcd 24 is not a power of two and the spans are unbounded:
        # residues do not survive mod-2^64 reduction, so no proof.
        a = _si(24, 0, None, None)
        b = _si(24, 12, None, None)
        assert not _footprints_disjoint(a, 8, b, 8)
        # bounded spans restore the argument
        assert _footprints_disjoint(_si(24, 0, 0, 240), 8,
                                    _si(24, 12, 12, 252), 8)


class TestTransfer:
    def _value(self, build, reg):
        program = build.build()
        m = analyze_memdep(program)
        return m.value_at(len(program.instructions) - 1, reg)

    def test_constant_chain_folds(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x100)
        b.lea(r(2), r(1), 8)
        b.halt()
        assert self._value(b, r(2)) == vs_const(0x108)

    def test_load_creates_symbolic_region(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.ld(r(2), r(1))
        b.halt()
        vs = self._value(b, r(2))
        assert vs is not TOP and vs.single[0] == ("pc", 1)
        assert vs.single[1] == si_const(0)

    def test_same_region_difference_is_absolute(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.ld(r(2), r(1))
        b.lea(r(3), r(2), 24)
        b.sub(r(4), r(3), r(2))
        b.halt()
        assert self._value(b, r(4)) == vs_const(24)

    def test_and_mask_bounds_symbolic_value(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.ld(r(2), r(1))         # unknown value
        b.movi(r(3), 0x38)
        b.and_(r(4), r(2), r(3))
        b.halt()
        vs = self._value(b, r(4))
        region, si = vs.single
        assert region == ABS
        assert (si.stride, si.phase, si.lo, si.hi) == (8, 0, 0, 0x38)

    def test_vec_dest_is_top(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.vld(v(1), r(1))
        b.halt()
        assert self._value(b, v(1)) is TOP

    def test_select_joins_both_sources(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 8)
        b.movi(r(2), 24)
        b.movi(r(4), 0x40)
        b.ld(r(5), r(4))         # unknown condition: SELECT can't fold
        b.test(r(5), r(5))
        b.select(r(3), r(1), r(2))
        b.halt()
        vs = self._value(b, r(3))
        region, si = vs.single
        assert region == ABS
        assert si.lo == 8 and si.hi == 24 and si.stride == 16


class TestAliasVerdicts:
    def test_must_alias_same_slot(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.st(r(2), r(1), 0)      # pc 1
        b.ld(r(3), r(1), 0)      # pc 2
        b.halt()
        m = analyze_memdep(b.build())
        assert m.alias(m.access_at(1), m.access_at(2)) == MUST

    def test_no_alias_adjacent_slots(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.st(r(2), r(1), 0)
        b.ld(r(3), r(1), 8)
        b.halt()
        m = analyze_memdep(b.build())
        assert m.alias(m.access_at(1), m.access_at(2)) == NO

    def test_no_alias_by_loop_congruence(self):
        """A stride-16 loop with accesses at +0 and +8: disjoint by
        congruence even though the trip count is unknown."""
        b = ProgramBuilder("t")
        b.movi(r(1), 0)
        b.movi(r(5), 256)
        b.label("loop")
        b.st(r(9), r(1), 0)      # pc 2
        b.ld(r(2), r(1), 8)      # pc 3
        b.lea(r(1), r(1), 16)
        b.cmp(r(1), r(5))
        b.bne("loop")
        b.halt()
        m = analyze_memdep(b.build())
        assert m.alias(m.access_at(2), m.access_at(3)) == NO

    def test_multi_instance_region_demotes_to_may(self):
        """A pointer loaded inside a loop names a different instance each
        trip: equal offsets are not MUST without a same-instance proof."""
        b = ProgramBuilder("t")
        b.movi(r(1), 0)
        b.movi(r(5), 64)
        b.label("loop")
        b.ld(r(2), r(1), 0)      # pc 2: fresh region every iteration
        b.st(r(3), r(2), 0)      # pc 3
        b.ld(r(4), r(2), 0)      # pc 4
        b.lea(r(1), r(1), 8)
        b.cmp(r(1), r(5))
        b.bne("loop")
        b.halt()
        m = analyze_memdep(b.build())
        a, c = m.access_at(3), m.access_at(4)
        assert m.alias(a, c) == MAY
        assert m.alias(a, c, same_instance=True) == MUST

    def test_unrelated_symbolic_regions_are_may(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.ld(r(2), r(1), 0)
        b.ld(r(3), r(1), 8)
        b.st(r(4), r(2), 0)      # pc 3
        b.ld(r(5), r(3), 0)      # pc 4
        b.halt()
        m = analyze_memdep(b.build())
        assert m.alias(m.access_at(3), m.access_at(4)) == MAY

    def test_dependence_edges(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.st(r(2), r(1), 0)      # pc 1
        b.st(r(2), r(1), 8)      # pc 2: disjoint from the load
        b.ld(r(3), r(1), 0)      # pc 3
        b.halt()
        m = analyze_memdep(b.build())
        assert m.dependence_edges() == [(1, 3, MUST)]


class TestLintBackends:
    def test_undefined_load(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x1000)
        b.ld(r(2), r(1), 0)      # nothing ever stores near 0x1000
        b.halt()
        m = analyze_memdep(b.build())
        assert m.undefined_loads() == [1]

    def test_data_image_feeds_load(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x1000)
        b.ld(r(2), r(1), 0)
        b.halt()
        b.word(0x1000, 7)
        m = analyze_memdep(b.build())
        assert m.undefined_loads() == []

    def test_dead_store(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.st(r(2), r(1), 0)      # pc 1: fully overwritten below
        b.st(r(3), r(1), 0)      # pc 2
        b.halt()
        m = analyze_memdep(b.build())
        assert m.dead_stores() == [1]

    def test_intervening_load_keeps_store_alive(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.st(r(2), r(1), 0)
        b.ld(r(4), r(1), 0)
        b.st(r(3), r(1), 0)
        b.halt()
        m = analyze_memdep(b.build())
        assert m.dead_stores() == []

    def test_partial_overlap(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.vst(v(1), r(1), 0)     # pc 1: [0x40, 0x60)
        b.ld(r(2), r(1), 28)     # pc 2: [0x5c, 0x64) — straddles the end
        b.halt()
        m = analyze_memdep(b.build())
        assert m.partial_overlaps() == [(1, 2)]

    def test_contained_access_is_not_partial(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.vst(v(1), r(1), 0)
        b.ld(r(2), r(1), 8)      # fully inside the vector footprint
        b.halt()
        m = analyze_memdep(b.build())
        assert m.partial_overlaps() == []


class TestRegionClassification:
    def test_forwardable_load_in_region(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.movi(r(2), 7)          # pc 1: window redefined at pc 4
        b.st(r(2), r(1), 0)      # pc 2
        b.ld(r(3), r(1), 0)      # pc 3: forwardable from pc 2
        b.movi(r(2), 9)          # pc 4: redefiner closes the window
        b.halt()
        program = b.build()
        m = analyze_memdep(program)
        infos = m.classify_regions(analyze_regions(program))
        fwd = {pc for info in infos for pc in info.forwardable}
        assert 3 in fwd

    def test_disjoint_accesses_safe_to_reorder(self):
        b = ProgramBuilder("t")
        b.movi(r(1), 0x40)
        b.movi(r(2), 7)
        b.st(r(2), r(1), 0)      # pc 2
        b.ld(r(3), r(1), 16)     # pc 3: provably disjoint
        b.movi(r(2), 9)
        b.halt()
        program = b.build()
        m = analyze_memdep(program)
        infos = m.classify_regions(analyze_regions(program))
        safe = {pc for info in infos for pc in info.safe_reorder}
        assert {2, 3} <= safe


class TestDeterminism:
    """The fixpoint is order-independent: the loop-head abstraction is a
    monotone function, not a history-dependent widening, so chaotic
    iteration reaches the same least fixpoint from any worklist order."""

    KERNELS = ("505.mcf_r", "548.exchange2_r", "503.bwaves_r",
               "531.deepsjeng_r")

    @pytest.mark.parametrize("name", KERNELS)
    def test_shuffled_worklist_same_result(self, name):
        program = builder_for(name)(4)
        cfg = build_cfg(program)
        baseline = analyze_memdep(program)
        base_verdicts = self._verdicts(baseline)
        for seed in range(3):
            order = list(range(len(cfg.blocks)))
            random.Random(seed).shuffle(order)
            shuffled = analyze_memdep(program, worklist_order=order)
            assert self._verdicts(shuffled) == base_verdicts
            assert shuffled.alias_counts() == baseline.alias_counts()
            assert shuffled.dead_stores() == baseline.dead_stores()
            assert shuffled.undefined_loads() == baseline.undefined_loads()

    @staticmethod
    def _verdicts(m):
        return {(a.pc, b.pc): m.alias(a, b)
                for i, a in enumerate(m.accesses)
                for b in m.accesses[i + 1:]}

    def test_multi_back_edge_loop(self):
        """Two retreating edges into one head (continue + loop bottom):
        the head still converges to one fixpoint from any order."""
        b = ProgramBuilder("t")
        b.movi(r(1), 0)
        b.movi(r(5), 256)
        b.label("loop")
        b.st(r(9), r(1), 0)
        b.lea(r(1), r(1), 16)
        b.cmp(r(1), r(5))
        b.beq("loop")            # back edge 1
        b.ld(r(2), r(1), 8)
        b.cmp(r(2), r(9))
        b.bne("loop")            # back edge 2
        b.halt()
        program = b.build()
        cfg = build_cfg(program)
        baseline = self._verdicts(analyze_memdep(program))
        for seed in range(6):
            order = list(range(len(cfg.blocks)))
            random.Random(seed).shuffle(order)
            assert self._verdicts(
                analyze_memdep(program, worklist_order=order)) == baseline


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as hs  # noqa: E402

_REGS = [r(i) for i in range(1, 7)]


@hs.composite
def straight_line_programs(draw):
    """Random straight-line programs mixing address arithmetic with
    loads and stores (no branches: every pc executes at most once)."""
    b = ProgramBuilder("prop")
    reg = hs.sampled_from(_REGS)
    n = draw(hs.integers(min_value=2, max_value=14))
    for _ in range(n):
        op = draw(hs.sampled_from(("movi", "lea", "add", "ld", "st")))
        if op == "movi":
            b.movi(draw(reg), draw(hs.integers(0, 128)))
        elif op == "lea":
            b.lea(draw(reg), draw(reg), draw(hs.integers(-32, 64)))
        elif op == "add":
            b.add(draw(reg), draw(reg), draw(reg))
        elif op == "ld":
            b.ld(draw(reg), draw(reg), draw(hs.integers(0, 64)))
        else:
            b.st(draw(reg), draw(reg), draw(hs.integers(0, 64)))
    b.halt()
    return b.build()


@given(program=straight_line_programs())
@settings(max_examples=120, deadline=None)
def test_must_alias_soundness_on_straight_line(program):
    """Dynamically observed overlapping load/store pairs are never
    classified ``no`` — the NO verdict claims a proof of disjointness,
    and on straight-line code there is no instance ambiguity to hide
    behind."""
    trace = Emulator(program).run(max_instructions=64)
    mem = [(e.pc, e.mem_addr) for e in trace.entries
           if e.mem_addr is not None]
    m = analyze_memdep(program)
    mask = (1 << 64) - 1
    for i, (pc_a, addr_a) in enumerate(mem):
        for pc_b, addr_b in mem[i + 1:]:
            a, b = m.access_at(pc_a), m.access_at(pc_b)
            if a.kind == "load" and b.kind == "load":
                continue
            overlap = ((addr_b - addr_a) & mask) < a.width \
                or ((addr_a - addr_b) & mask) < b.width
            if overlap:
                assert m.alias(a, b) != NO, (
                    f"pcs {pc_a}/{pc_b} touched {addr_a:#x}/{addr_b:#x} "
                    f"but were classified no-alias")
            if addr_a == addr_b:
                assert m.alias(a, b) in (MUST, MAY)

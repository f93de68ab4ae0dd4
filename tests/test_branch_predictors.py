"""Direction predictors: bimodal, gshare, TAGE, loop predictor."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.branch import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    GShare,
    LoopPredictor,
    Tage,
)


class TestStatic:
    def test_always_taken(self):
        p = AlwaysTaken()
        assert p.predict(0x40) is True
        p.update(0x40, False)
        assert p.predict(0x40) is True

    def test_always_not_taken(self):
        p = AlwaysNotTaken()
        assert p.predict(0x40) is False


class TestBimodal:
    def test_learns_biased_branch(self):
        p = Bimodal(entries=64)
        for _ in range(4):
            p.update(5, True)
        assert p.predict(5) is True

    def test_learns_not_taken(self):
        p = Bimodal(entries=64)
        for _ in range(4):
            p.update(5, False)
        assert p.predict(5) is False

    def test_hysteresis(self):
        """One stray outcome must not flip a saturated counter."""
        p = Bimodal(entries=64)
        for _ in range(4):
            p.update(7, True)
        p.update(7, False)
        assert p.predict(7) is True

    def test_confidence_saturated(self):
        p = Bimodal(entries=64)
        for _ in range(4):
            p.update(9, True)
        assert p.confidence(9)

    def test_confidence_weak(self):
        p = Bimodal(entries=64)
        assert not p.confidence(9)  # counters start weak

    def test_aliasing_by_design(self):
        p = Bimodal(entries=16)
        for _ in range(4):
            p.update(0, True)
        assert p.predict(16) is True  # same slot

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Bimodal(entries=100)


class TestGShare:
    def test_learns_alternating_with_history(self):
        """T/NT alternation is unlearnable by bimodal but trivial for a
        history-indexed predictor."""
        p = GShare(entries=1024, history_bits=8)
        outcome = True
        for _ in range(200):
            p.update(0x33, outcome)
            outcome = not outcome
        hits = 0
        for _ in range(50):
            if p.predict(0x33) == outcome:
                hits += 1
            p.update(0x33, outcome)
            outcome = not outcome
        assert hits >= 45

    def test_history_advances(self):
        p = GShare()
        before = p.history
        p.update(0, True)
        assert p.history != before


class TestTage:
    def _train(self, p, pattern, pc=0x100, reps=60):
        for _ in range(reps):
            for outcome in pattern:
                p.predict(pc)
                p.update(pc, outcome)

    def test_learns_bias(self):
        p = Tage()
        self._train(p, [True], reps=30)
        assert p.predict(0x100) is True

    def test_learns_short_pattern(self):
        p = Tage()
        pattern = [True, True, False]
        self._train(p, pattern, reps=80)
        hits = 0
        for i in range(30):
            outcome = pattern[i % 3]
            if p.predict(0x100) == outcome:
                hits += 1
            p.update(0x100, outcome)
        assert hits >= 26

    def test_update_without_predict_is_safe(self):
        p = Tage()
        p.update(0x500, True)  # must not raise

    def test_distinct_pcs_independent(self):
        p = Tage(with_loop_predictor=False)
        self._train(p, [True], pc=0x10, reps=30)
        self._train(p, [False], pc=0x20, reps=30)
        assert p.predict(0x10) is True
        assert p.predict(0x20) is False


class TestTageGeometry:
    @pytest.mark.parametrize("kwargs", [
        {"tag_bits": 1},
        {"tag_bits": 17},
        {"table_entries": 1},
        {"min_history": 0},
        # Geometric lengths 4..9 over a 6-bit history register.
        {"num_tables": 6, "min_history": 4, "max_history": 6},
    ], ids=["tag_bits=1", "tag_bits=17", "table_entries=1", "min_history=0",
            "lengths-beyond-register"])
    def test_rejects_geometry_it_cannot_model(self, kwargs):
        with pytest.raises(ValueError):
            Tage(**kwargs)

    def test_default_lengths_fill_the_history_register(self):
        lengths = [t.history_length for t in Tage().tables]
        assert lengths == [4, 8, 16, 32, 64, 128]


def _chunked_fold(history: int, length: int, width: int) -> int:
    """The fold TAGE once recomputed on every lookup: the low *length*
    history bits XOR-folded down to *width* bits, one chunk at a time."""
    masked = history & ((1 << length) - 1)
    folded = 0
    while masked:
        folded ^= masked & ((1 << width) - 1)
        masked >>= width
    return folded


#: 300 outcomes: enough to push bits out of a 128-bit window.
_STREAM = [((i * 2654435761) >> 9) & 1 == 1 for i in range(300)]


@settings(max_examples=150, deadline=None)
@given(length=st.integers(1, 128), index_bits=st.integers(1, 12),
       tag_bits=st.integers(2, 16),
       outcomes=st.lists(st.booleans(), max_size=300))
@example(length=40, index_bits=10, tag_bits=5, outcomes=_STREAM)  # L % w == 0
@example(length=7, index_bits=10, tag_bits=9, outcomes=_STREAM)   # L < w
@example(length=128, index_bits=10, tag_bits=9, outcomes=_STREAM)  # L == 128
def test_folded_registers_equal_chunked_fold(length, index_bits, tag_bits,
                                             outcomes):
    """Each O(1) register update equals re-folding the whole history."""
    tage = Tage(num_tables=1, table_entries=1 << index_bits,
                tag_bits=tag_bits, min_history=length, max_history=128,
                with_loop_predictor=False)
    table = tage.tables[0]
    assert table.history_length == length
    for taken in outcomes:
        tage.update(0x40, taken)
        history = tage.history
        assert table.fold_index == _chunked_fold(history, length, index_bits)
        assert table.fold_tag == _chunked_fold(history, length, tag_bits)
        assert table.fold_tag1 == _chunked_fold(history, length, tag_bits - 1)


class TestLoopPredictor:
    def test_learns_fixed_trip_count(self):
        p = LoopPredictor()
        # 5 taken + 1 not-taken, repeatedly
        for _ in range(6):
            for i in range(6):
                p.update(0x40, i < 5)
        # mid-loop: predict taken; at the 6th: predict exit
        for i in range(6):
            prediction = p.predict(0x40)
            assert prediction == (i < 5)
            p.update(0x40, i < 5)

    def test_unconfident_returns_none(self):
        p = LoopPredictor()
        p.update(0x40, True)
        assert p.predict(0x40) is None

    def test_changing_trip_count_resets(self):
        p = LoopPredictor()
        for trip in (3, 5, 4):
            for i in range(trip + 1):
                p.update(0x40, i < trip)
        assert p.predict(0x40) is None

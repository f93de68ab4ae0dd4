"""TAGE direction predictor (TAGE-SC-L-lite).

A faithful-in-structure implementation of the TAGE predictor the paper's
Golden-Cove-like Scarab configuration uses ("TAGE-SC-L + BPU enhancements"):
a bimodal base predictor plus N partially-tagged tables indexed by
geometrically increasing global-history lengths, with provider/altpred
selection, useful counters, and graceful allocation on mispredictions.
A small loop predictor provides the "L" component; the statistical
corrector is omitted (it corrects <1% of predictions and does not affect
register-release behaviour).
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from .interface import DirectionPredictor, saturate
from .simple import Bimodal


class _TaggedTable:
    """One partially-tagged TAGE component, held as flat columns.

    Entry *i* is ``tags[i]`` (partial tag), ``counters[i]`` (3-bit, weakly
    taken at 4) and ``useful[i]`` (2-bit).  The table also carries the
    folded-history registers of Seznec's reference code: the low
    ``history_length`` (L) history bits XOR-folded down to the index
    width (``fold_index``), the tag width (``fold_tag``) and the tag
    width - 1 (``fold_tag1``).  :meth:`push` shifts them with the
    history, so a lookup never re-folds it.
    """

    __slots__ = ("entries", "tag_bits", "history_length", "index_bits",
                 "index_mask", "tag_mask", "tag1_mask", "out_shift",
                 "index_out", "tag_out", "tag1_out",
                 "tags", "counters", "useful",
                 "fold_index", "fold_tag", "fold_tag1")

    def __init__(self, entries: int, tag_bits: int, history_length: int):
        if entries < 2 or entries & (entries - 1):
            raise ValueError("entries must be a power of two of at least 2")
        if not 2 <= tag_bits <= 16:
            raise ValueError("tag_bits must be between 2 and 16")
        self.entries = entries
        self.tag_bits = tag_bits
        self.history_length = history_length
        self.index_bits = entries.bit_length() - 1
        self.index_mask = entries - 1
        self.tag_mask = (1 << tag_bits) - 1
        self.tag1_mask = self.tag_mask >> 1
        # Bit L-1 leaves the window on a shift; rotated one place, it
        # sits at L mod width in each fold.
        self.out_shift = history_length - 1
        self.index_out = history_length % self.index_bits
        self.tag_out = history_length % tag_bits
        self.tag1_out = history_length % (tag_bits - 1)
        self.tags = array("H", bytes(2 * entries))
        self.counters = bytearray(b"\x04" * entries)
        self.useful = bytearray(entries)
        self.fold_index = self.fold_tag = self.fold_tag1 = 0

    def push(self, new: int, history: int) -> None:
        """Fold bit *new* in as it enters *history* (the history before
        the shift), and fold out bit L-1 as it leaves the window.

        Rotating a fold left by one within its width moves each history
        bit to the next residue class, as shifting the history does, so
        each register always equals the chunked XOR fold of the low L
        history bits (given L <= the history register's width).
        """
        out = (history >> self.out_shift) & 1
        f = (self.fold_index << 1 | new) ^ out << self.index_out
        self.fold_index = (f ^ f >> self.index_bits) & self.index_mask
        f = (self.fold_tag << 1 | new) ^ out << self.tag_out
        self.fold_tag = (f ^ f >> self.tag_bits) & self.tag_mask
        f = (self.fold_tag1 << 1 | new) ^ out << self.tag1_out
        self.fold_tag1 = (f ^ f >> (self.tag_bits - 1)) & self.tag1_mask


class _LoopEntry:
    __slots__ = ("tag", "trip_count", "current", "confidence")

    def __init__(self):
        self.tag = 0
        self.trip_count = 0
        self.current = 0
        self.confidence = 0


class LoopPredictor:
    """Detects fixed-trip-count loops and predicts their exit."""

    def __init__(self, entries: int = 64, confidence_max: int = 3):
        self.entries = entries
        self.confidence_max = confidence_max
        self.table = [_LoopEntry() for _ in range(entries)]

    def _entry(self, pc: int) -> _LoopEntry:
        return self.table[pc % self.entries]

    def predict(self, pc: int) -> Optional[bool]:
        """Confident loop prediction, or ``None`` if not applicable."""
        e = self._entry(pc)
        if e.tag != pc or e.confidence < self.confidence_max or e.trip_count == 0:
            return None
        return e.current < e.trip_count

    def update(self, pc: int, taken: bool) -> None:
        e = self._entry(pc)
        if e.tag != pc:
            e.tag = pc
            e.trip_count = 0
            e.current = 0
            e.confidence = 0
            if not taken:
                return
        if taken:
            e.current += 1
        else:
            # Loop exit: does the trip count repeat?
            if e.trip_count == e.current and e.trip_count > 0:
                e.confidence = saturate(e.confidence, 1, 0, self.confidence_max)
            else:
                e.trip_count = e.current
                e.confidence = 0
            e.current = 0


class Tage(DirectionPredictor):
    """TAGE with a bimodal base, tagged components, and a loop predictor.

    Raises ``ValueError`` for geometries the folded-history registers
    cannot model: ``tag_bits`` outside 2..16, ``table_entries`` below 2,
    ``min_history`` below 1, or a geometric history length longer than
    the ``max_history``-bit history register.
    """

    def __init__(
        self,
        num_tables: int = 6,
        table_entries: int = 1024,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 128,
        base_entries: int = 8192,
        with_loop_predictor: bool = True,
    ):
        if min_history < 1:
            raise ValueError("min_history must be at least 1")
        lengths = _geometric_lengths(num_tables, min_history, max_history)
        if lengths and lengths[-1] > max_history:
            raise ValueError(
                f"history lengths {lengths} exceed the {max_history}-bit "
                f"history register")
        self.base = Bimodal(entries=base_entries, counter_bits=2)
        self.tables: List[_TaggedTable] = [
            _TaggedTable(table_entries, tag_bits, length) for length in lengths
        ]
        self.history = 0
        self.history_bits = max_history
        self.loop = LoopPredictor() if with_loop_predictor else None
        self.use_alt_on_new = 8  # 4-bit counter, >=8 prefers altpred for fresh entries
        # Prediction bookkeeping (provider table etc.) keyed by pc for the
        # common predict -> update flow.
        self._last: dict = {}
        # The last _lookup, valid until update() changes the history or
        # the tables: predict, confidence and update of one branch share it.
        self._memo_pc: Optional[int] = None
        self._memo: tuple = ()

    # -- prediction ----------------------------------------------------------
    def _lookup(self, pc: int) -> tuple:
        """(provider, provider index, alt, alt index, per-table (index,
        tag)) for *pc* at the current history."""
        if pc == self._memo_pc:
            return self._memo
        tables = self.tables
        pc_hash = pc ^ (pc >> 4)
        slots = [((pc_hash ^ t.fold_index) & t.index_mask,
                  (pc ^ t.fold_tag ^ t.fold_tag1 << 1) & t.tag_mask)
                 for t in tables]
        provider = None
        provider_index = -1
        alt = None
        alt_index = -1
        for t in range(len(tables) - 1, -1, -1):
            idx, tag = slots[t]
            if tables[t].tags[idx] == tag:
                if provider is None:
                    provider, provider_index = t, idx
                elif alt is None:
                    alt, alt_index = t, idx
                    break
        self._memo_pc = pc
        self._memo = (provider, provider_index, alt, alt_index, slots)
        return self._memo

    def predict(self, pc: int) -> bool:
        if self.loop is not None:
            loop_pred = self.loop.predict(pc)
        else:
            loop_pred = None
        provider, p_idx, alt, a_idx, _ = self._lookup(pc)
        base_pred = self.base.predict(pc)
        if provider is None:
            pred = base_pred
            alt_pred = base_pred
        else:
            table = self.tables[provider]
            counter = table.counters[p_idx]
            provider_pred = counter >= 4
            if alt is not None:
                alt_pred = self.tables[alt].counters[a_idx] >= 4
            else:
                alt_pred = base_pred
            newly_allocated = table.useful[p_idx] == 0 and counter in (3, 4)
            if newly_allocated and self.use_alt_on_new >= 8:
                pred = alt_pred
            else:
                pred = provider_pred
        self._last[pc] = (provider, p_idx, alt, a_idx, pred, alt_pred)
        return loop_pred if loop_pred is not None else pred

    def confidence(self, pc: int) -> bool:
        """High confidence when the provider counter is strongly saturated."""
        provider, p_idx, _, _, _ = self._lookup(pc)
        if provider is None:
            return self.base.confidence(pc)
        counter = self.tables[provider].counters[p_idx]
        return counter <= 1 or counter >= 6

    # -- update ----------------------------------------------------------------
    def update(self, pc: int, taken: bool) -> None:
        if self.loop is not None:
            self.loop.update(pc, taken)
        state = self._last.pop(pc, None)
        if state is None:
            # update without a preceding predict (e.g. replayed): look up now
            provider, p_idx, alt, a_idx, _ = self._lookup(pc)
            pred = alt_pred = None
        else:
            provider, p_idx, alt, a_idx, pred, alt_pred = state

        if provider is not None:
            table = self.tables[provider]
            if pred is not None and pred != alt_pred:
                # provider was useful iff it was right where altpred was wrong
                table.useful[p_idx] = saturate(
                    table.useful[p_idx], 1 if pred == taken else -1, 0, 3)
                self.use_alt_on_new = saturate(
                    self.use_alt_on_new, -1 if pred == taken else 1, 0, 15
                )
            table.counters[p_idx] = saturate(
                table.counters[p_idx], 1 if taken else -1, 0, 7)
        else:
            self.base.update(pc, taken)

        mispredicted = pred is not None and pred != taken
        if mispredicted:
            # The history has not moved since the lookup, so its (index,
            # tag) pairs are the ones allocation needs.
            self._allocate(taken, provider, self._lookup(pc)[4])

        history = self.history
        new = 1 if taken else 0
        for table in self.tables:
            table.push(new, history)
        self.history = ((history << 1) | new) & ((1 << self.history_bits) - 1)
        self._memo_pc = None

    def _allocate(self, taken: bool, provider: Optional[int], slots: list) -> None:
        """Allocate a new entry in a longer-history table on a mispredict."""
        start = (provider + 1) if provider is not None else 0
        tables = self.tables
        for t in range(start, len(tables)):
            table = tables[t]
            idx, tag = slots[t]
            if table.useful[idx] == 0:
                table.tags[idx] = tag
                table.counters[idx] = 4 if taken else 3
                return
        # No victim: age the candidate entries instead.
        for t in range(start, len(tables)):
            useful = tables[t].useful
            idx = slots[t][0]
            useful[idx] = saturate(useful[idx], -1, 0, 3)


def _geometric_lengths(count: int, shortest: int, longest: int) -> List[int]:
    """Geometrically spaced history lengths, TAGE-style."""
    if count == 1:
        return [shortest]
    ratio = (longest / shortest) ** (1.0 / (count - 1))
    lengths = []
    for i in range(count):
        length = int(round(shortest * ratio**i))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return lengths

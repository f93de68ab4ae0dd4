"""The L1D data prefetcher: stride (stream) plus next-line (spatial).

The paper's configuration lists "Stream, Spatial" data prefetchers; both
are modeled here, trained on L1D accesses, and their candidates are made
in one pass.  Prefetches are issued into the hierarchy asynchronously
(they fill caches but nobody waits on them).
"""

from __future__ import annotations

from typing import List


class Prefetcher:
    """PC-indexed stride detector plus a next-line candidate.

    The stride table is four flat lists indexed by ``pc % entries``: the
    PC that owns the slot, its last address, stride and confidence.  After
    ``threshold`` consecutive confirmations of a nonzero stride, an access
    yields the next ``degree`` strided addresses; every access also yields
    the start of the next line, unless a strided candidate already is it.
    """

    def __init__(self, line_bytes: int = 64, entries: int = 256,
                 threshold: int = 2, degree: int = 4):
        self.line_bytes = line_bytes
        self.entries = entries
        self.threshold = threshold
        self.degree = degree
        self._pcs = [-1] * entries
        self._last = [0] * entries
        self._strides = [0] * entries
        self._confidence = [0] * entries

    def observe(self, addr: int, pc: int) -> List[int]:
        """Train on an access to *addr* by *pc*; return the addresses to
        prefetch, strided ones first."""
        line = self.line_bytes
        next_line = addr // line * line + line
        slot = pc % self.entries
        pcs = self._pcs
        if pcs[slot] != pc:
            pcs[slot] = pc
            self._last[slot] = addr
            self._strides[slot] = 0
            self._confidence[slot] = 0
            return [next_line]
        last = self._last
        stride = addr - last[slot]
        last[slot] = addr
        threshold = self.threshold
        strides = self._strides
        if stride and stride == strides[slot]:
            confidence = self._confidence[slot] + 1
            if confidence > threshold + 1:
                confidence = threshold + 1
        else:
            strides[slot] = stride
            confidence = 0
        self._confidence[slot] = confidence
        if confidence < threshold or not stride:
            return [next_line]
        out = list(range(addr + stride, addr + stride * (self.degree + 1), stride))
        if next_line not in out:
            out.append(next_line)
        return out

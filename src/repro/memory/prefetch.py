"""Hardware prefetchers: next-line (spatial) and stride/stream.

The paper's configuration lists "Stream, Spatial" data prefetchers; both
are modeled here and trained on L1D accesses.  Prefetches are issued into
the hierarchy asynchronously (they fill caches but nobody waits on them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class NextLinePrefetcher:
    """Spatial prefetcher: on access to block B, prefetch B+1..B+degree."""

    def __init__(self, line_bytes: int = 64, degree: int = 1):
        self.line_bytes = line_bytes
        self.degree = degree
        self.issued = 0

    def observe(self, addr: int, pc: int) -> List[int]:
        base = (addr // self.line_bytes) * self.line_bytes
        out = [base + i * self.line_bytes for i in range(1, self.degree + 1)]
        self.issued += len(out)
        return out


@dataclass
class _StreamEntry:
    pc: int = -1
    last_addr: int = 0
    stride: int = 0
    confidence: int = 0


class StridePrefetcher:
    """Classic PC-indexed stride prefetcher (stream detector).

    Each entry tracks the last address and stride per load PC; after
    ``threshold`` consecutive confirmations it prefetches ``degree``
    strides ahead.
    """

    def __init__(self, entries: int = 256, threshold: int = 2, degree: int = 4):
        self.entries = entries
        self.threshold = threshold
        self.degree = degree
        self.table = [_StreamEntry() for _ in range(entries)]
        self.issued = 0

    def observe(self, addr: int, pc: int) -> List[int]:
        entry = self.table[pc % self.entries]
        prefetches: List[int] = []
        if entry.pc != pc:
            entry.pc = pc
            entry.last_addr = addr
            entry.stride = 0
            entry.confidence = 0
            return prefetches
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, self.threshold + 1)
        else:
            entry.stride = stride
            entry.confidence = 0
        entry.last_addr = addr
        if entry.confidence >= self.threshold and entry.stride:
            prefetches = [addr + entry.stride * i for i in range(1, self.degree + 1)]
            self.issued += len(prefetches)
        return prefetches


class CompositePrefetcher:
    """Stream + spatial, de-duplicated per observation."""

    def __init__(self, line_bytes: int = 64):
        self.parts = [
            StridePrefetcher(),
            NextLinePrefetcher(line_bytes=line_bytes, degree=1),
        ]

    def observe(self, addr: int, pc: int) -> List[int]:
        # At most five candidates: a list scan de-duplicates them without
        # building a set per access.
        out: List[int] = []
        for part in self.parts:
            for candidate in part.observe(addr, pc):
                if candidate not in out:
                    out.append(candidate)
        return out

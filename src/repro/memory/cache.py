"""Set-associative cache model.

Timing-directed: the hierarchy asks each level whether a block hits and
installs blocks on fills.  Replacement is true LRU per set; writebacks are
modeled by tracking dirty state (they cost DRAM bandwidth only in the
statistics, not extra latency, matching Scarab's default L1/L2 writeback
treatment).

The probe and fill logic works on block numbers (address >> line shift)
with positional arguments, which is how the hierarchy calls it on every
access; ``lookup``, ``contains`` and ``fill`` are address-taking wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """One cache level.

    Args:
        name: For statistics reporting ("L1D", ...).
        size_bytes: Total capacity.
        ways: Associativity.
        line_bytes: Block size (power of two).
        latency: Hit latency in cycles (access time of this level).
    """

    def __init__(self, name: str, size_bytes: int, ways: int, line_bytes: int, latency: int):
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        sets = size_bytes // (ways * line_bytes)
        if sets <= 0:
            raise ValueError("cache too small for its geometry")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.latency = latency
        self.num_sets = sets
        self._line_shift = line_bytes.bit_length() - 1
        # set index -> resident block numbers, LRU first, MRU last
        self._sets: Dict[int, List[int]] = {}
        # Per-block state of resident blocks, cache-wide.
        self._dirty: Set[int] = set()
        self._prefetched: Set[int] = set()  # filled by a prefetch, not yet demand-hit
        self.stats = CacheStats()

    # -- by block number (the hierarchy's hot path) ------------------------------
    def probe_block(self, block: int, is_write: bool) -> bool:
        """Counted probe for *block*; on hit, update LRU (and dirty on
        writes) and claim a prefetched block's mark."""
        blocks = self._sets.get(block % self.num_sets)
        stats = self.stats
        stats.accesses += 1
        if blocks is not None and block in blocks:
            if blocks[-1] != block:
                blocks.remove(block)
                blocks.append(block)
            if is_write:
                self._dirty.add(block)
            stats.hits += 1
            prefetched = self._prefetched
            if block in prefetched:
                prefetched.remove(block)
                stats.prefetch_hits += 1
            return True
        stats.misses += 1
        return False

    def touch_block(self, block: int) -> bool:
        """Uncounted probe for *block*: on hit, update LRU only.

        Counts nothing and leaves a prefetched block's mark for its first
        counted hit.
        """
        blocks = self._sets.get(block % self.num_sets)
        if blocks is not None and block in blocks:
            if blocks[-1] != block:
                blocks.remove(block)
                blocks.append(block)
            return True
        return False

    def has_block(self, block: int) -> bool:
        """Probe without side effects."""
        blocks = self._sets.get(block % self.num_sets)
        return blocks is not None and block in blocks

    def fill_block(self, block: int, dirty: bool, prefetched: bool) -> Optional[int]:
        """Install *block*.

        Returns the evicted block's base address if a dirty block was
        written back, else ``None``.
        """
        index = block % self.num_sets
        blocks = self._sets.get(index)
        if blocks is None:
            blocks = self._sets[index] = []
        elif block in blocks:
            if blocks[-1] != block:
                blocks.remove(block)
                blocks.append(block)
            if dirty:
                self._dirty.add(block)
            return None
        writeback = None
        if len(blocks) >= self.ways:
            victim = blocks.pop(0)
            self.stats.evictions += 1
            self._prefetched.discard(victim)
            if victim in self._dirty:
                self._dirty.remove(victim)
                self.stats.writebacks += 1
                writeback = victim << self._line_shift
        blocks.append(block)
        if dirty:
            self._dirty.add(block)
        if prefetched:
            self._prefetched.add(block)
            self.stats.prefetch_fills += 1
        return writeback

    # -- by address ----------------------------------------------------------------
    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Counted probe for the block containing *addr*."""
        return self.probe_block(addr >> self._line_shift, is_write)

    def contains(self, addr: int) -> bool:
        """Probe without side effects."""
        return self.has_block(addr >> self._line_shift)

    def fill(self, addr: int, dirty: bool = False, prefetched: bool = False) -> Optional[int]:
        """Install the block containing *addr* (see :meth:`fill_block`)."""
        return self.fill_block(addr >> self._line_shift, dirty, prefetched)

    def invalidate(self, addr: int) -> None:
        block = addr >> self._line_shift
        blocks = self._sets.get(block % self.num_sets)
        if blocks is not None and block in blocks:
            blocks.remove(block)
            self._dirty.discard(block)
            self._prefetched.discard(block)

    @property
    def resident_blocks(self) -> int:
        return sum(len(blocks) for blocks in self._sets.values())

"""The cache/memory hierarchy: L1I, L1D, L2, LLC, DRAM, MSHRs, prefetch.

Timing interface: :meth:`MemoryHierarchy.load` / :meth:`store` /
:meth:`fetch` take the current cycle and return the cycle at which the
data is available.  Outstanding misses to the same block merge in the
MSHR (the second requester inherits the first fill's completion time), and
a full MSHR file applies back-pressure by serializing behind the oldest
outstanding miss — the dominant first-order effects of a real MSHR design.

Latencies follow the paper's Table 1 (3/3/14/40-cycle L1I/L1D/L2/LLC and
DDR4-3200-class DRAM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from .cache import Cache
from .prefetch import Prefetcher


@dataclass
class DramModel:
    """Flat-latency DRAM with a simple bank-conflict adder.

    ``latency`` approximates loaded DDR4-3200 round-trip from the LLC; a
    small deterministic extra penalty models row-buffer misses by hashing
    the block address (keeps runs reproducible without a full DRAM sim).
    """

    latency: int = 200
    banks: int = 16
    row_bytes: int = 4096
    bank_conflict_penalty: int = 40

    _open_rows: Dict[int, int] = field(default_factory=dict)
    accesses: int = 0
    row_misses: int = 0

    def access(self, addr: int) -> int:
        """Latency of one DRAM access."""
        self.accesses += 1
        bank = (addr // self.row_bytes) % self.banks
        row = addr // (self.row_bytes * self.banks)
        penalty = 0
        if self._open_rows.get(bank) != row:
            self.row_misses += 1
            penalty = self.bank_conflict_penalty
            self._open_rows[bank] = row
        return self.latency + penalty


@dataclass
class HierarchyConfig:
    """Geometry and latency of every level (paper Table 1 defaults)."""

    line_bytes: int = 64
    l1i_size: int = 32 * 1024
    l1i_ways: int = 8
    l1i_latency: int = 3
    l1d_size: int = 48 * 1024
    l1d_ways: int = 12
    l1d_latency: int = 3
    l2_size: int = 1280 * 1024
    l2_ways: int = 10
    l2_latency: int = 14
    llc_size: int = 3 * 1024 * 1024
    llc_ways: int = 12
    llc_latency: int = 40
    dram_latency: int = 200
    mshr_entries: int = 48
    enable_prefetch: bool = True


class MemoryHierarchy:
    """Three-level hierarchy with MSHR merging and data prefetching.

    The MSHR file is a dict (block -> completion cycle of the outstanding
    fill) with a min-heap of ``(completion, block)`` beside it, so an
    access retires exactly the fills that are due and a full file reads
    its oldest completion from the heap head; the two only change
    together (:meth:`clear_mshr` empties both).
    """

    def __init__(self, config: Optional[HierarchyConfig] = None):
        self.config = config or HierarchyConfig()
        c = self.config
        self.l1i = Cache("L1I", c.l1i_size, c.l1i_ways, c.line_bytes, c.l1i_latency)
        self.l1d = Cache("L1D", c.l1d_size, c.l1d_ways, c.line_bytes, c.l1d_latency)
        self.l2 = Cache("L2", c.l2_size, c.l2_ways, c.line_bytes, c.l2_latency)
        self.llc = Cache("LLC", c.llc_size, c.llc_ways, c.line_bytes, c.llc_latency)
        self.dram = DramModel(latency=c.dram_latency)
        self.prefetcher = Prefetcher(line_bytes=c.line_bytes) if c.enable_prefetch else None
        self._line_shift = c.line_bytes.bit_length() - 1
        self._mshr: Dict[int, int] = {}
        self._mshr_heap: List[Tuple[int, int]] = []
        self.mshr_merges = 0
        self.mshr_stalls = 0

    def clear_mshr(self) -> None:
        """Forget every outstanding fill (all have logically arrived)."""
        self._mshr.clear()
        self._mshr_heap.clear()

    # -- internals -------------------------------------------------------------
    def _access(self, cycle: int, addr: int, l1: Cache, is_write: bool) -> int:
        mshr = self._mshr
        heap = self._mshr_heap
        while heap and heap[0][0] <= cycle:
            del mshr[heappop(heap)[1]]
        block = addr >> self._line_shift
        if l1.probe_block(block, is_write):
            # Fill-at-access installs lines immediately; an MSHR entry for
            # the block means the data is still in flight, so a "hit" on
            # it cannot complete before the fill arrives.
            completion = cycle + l1.latency
            pending = mshr.get(block)
            if pending is not None and pending > completion:
                self.mshr_merges += 1
                completion = pending
            return completion
        pending = mshr.get(block)
        if pending is not None:
            # Merge with the fill in flight.  L1 is not filled here: when
            # that fill is a prefetch, it installed the block in L2 and
            # the LLC only (DESIGN.md, modeling decision 4).
            self.mshr_merges += 1
            completion = cycle + l1.latency
            return pending if pending > completion else completion
        extra = 0
        if len(mshr) >= self.config.mshr_entries:
            # MSHR full: serialize behind the oldest outstanding miss.
            self.mshr_stalls += 1
            extra = max(0, heap[0][0] - cycle)
        # Miss path: fill from L2, the LLC or DRAM.
        l2 = self.l2
        llc = self.llc
        if l2.probe_block(block, False):
            latency = l2.latency
        elif llc.probe_block(block, False):
            latency = llc.latency
            l2.fill_block(block, False, False)
        else:
            latency = llc.latency + self.dram.access(addr)
            llc.fill_block(block, False, False)
            l2.fill_block(block, False, False)
        l1.fill_block(block, is_write, False)
        completion = cycle + l1.latency + latency + extra
        mshr[block] = completion
        heappush(heap, (completion, block))
        return completion

    def _prefetch(self, cycle: int, addr: int, pc: int) -> None:
        """Train the prefetcher on an L1D access and issue its candidates
        into L2.

        A fill takes real time: the block is installed in the caches, but
        an MSHR entry carries its availability cycle, so a demand access
        arriving before the data does merges and pays the remaining
        latency instead of hitting instantly.  A candidate already in
        flight or in L2 does nothing.
        """
        shift = self._line_shift
        mshr = self._mshr
        l2 = self.l2
        llc = self.llc
        for candidate in self.prefetcher.observe(addr, pc):
            block = candidate >> shift
            if block in mshr or l2.has_block(block):
                continue
            if llc.touch_block(block):
                latency = llc.latency
            else:
                latency = llc.latency + self.dram.access(candidate)
                llc.fill_block(block, False, True)
            l2.fill_block(block, False, True)
            if len(mshr) < self.config.mshr_entries:
                completion = cycle + latency
                mshr[block] = completion
                heappush(self._mshr_heap, (completion, block))

    # -- public API ----------------------------------------------------------
    def load(self, cycle: int, addr: int, pc: int = 0) -> int:
        """Data-available cycle for a load issued at *cycle*."""
        completion = self._access(cycle, addr, self.l1d, False)
        if self.prefetcher is not None:
            self._prefetch(cycle, addr, pc)
        return completion

    def store(self, cycle: int, addr: int, pc: int = 0) -> int:
        """Completion cycle for a store issued (from the store buffer)."""
        completion = self._access(cycle, addr, self.l1d, True)
        if self.prefetcher is not None:
            self._prefetch(cycle, addr, pc)
        return completion

    def fetch(self, cycle: int, addr: int) -> int:
        """Instruction-available cycle for a fetch of *addr*."""
        return self._access(cycle, addr, self.l1i, False)

    def stats_table(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for cache in (self.l1i, self.l1d, self.l2, self.llc):
            out[cache.name] = {
                "accesses": cache.stats.accesses,
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "hit_rate": cache.stats.hit_rate,
            }
        out["DRAM"] = {
            "accesses": self.dram.accesses,
            "row_misses": self.dram.row_misses,
        }
        return out

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
from typing import Dict, Optional

from .cache import Cache
from .prefetch import CompositePrefetcher


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
    """Three-level hierarchy with MSHR merging and data prefetching."""

    def __init__(self, config: Optional[HierarchyConfig] = None):
        self.config = config or HierarchyConfig()
        c = self.config
        self.l1i = Cache("L1I", c.l1i_size, c.l1i_ways, c.line_bytes, c.l1i_latency)
        self.l1d = Cache("L1D", c.l1d_size, c.l1d_ways, c.line_bytes, c.l1d_latency)
        self.l2 = Cache("L2", c.l2_size, c.l2_ways, c.line_bytes, c.l2_latency)
        self.llc = Cache("LLC", c.llc_size, c.llc_ways, c.line_bytes, c.llc_latency)
        self.dram = DramModel(latency=c.dram_latency)
        self.prefetcher = CompositePrefetcher(line_bytes=c.line_bytes) if c.enable_prefetch else None
        self._line_bytes = c.line_bytes
        # MSHR: block -> completion cycle of the outstanding fill
        self._mshr: Dict[int, int] = {}
        self.mshr_merges = 0
        self.mshr_stalls = 0

    # -- internals -------------------------------------------------------------
    def _reap_mshr(self, cycle: int) -> None:
        done = [b for b, when in self._mshr.items() if when <= cycle]
        for b in done:
            del self._mshr[b]

    def _miss_path(self, cycle: int, addr: int, l1: Cache, is_write: bool) -> int:
        """Latency (beyond L1 access) of filling *addr* from L2/LLC/DRAM."""
        if self.l2.lookup(addr, False):
            latency = self.l2.latency
        elif self.llc.lookup(addr, False):
            latency = self.llc.latency
            self.l2.fill(addr)
        else:
            self.llc.stats.accesses += 1
            self.llc.stats.misses += 1
            latency = self.llc.latency + self.dram.access(addr)
            self.llc.fill(addr)
            self.l2.fill(addr)
        l1.fill(addr, dirty=is_write)
        return latency

    def _access(self, cycle: int, addr: int, l1: Cache, is_write: bool, pc: int) -> int:
        mshr = self._mshr
        if mshr:
            self._reap_mshr(cycle)
        block = addr // self._line_bytes
        if l1.lookup(addr, is_write):
            # Fill-at-access installs lines immediately; an MSHR entry for
            # the block means the data is still in flight, so a "hit" on
            # it cannot complete before the fill arrives.
            pending = mshr.get(block, 0)
            if pending > cycle + l1.latency:
                self.mshr_merges += 1
            completion = max(cycle + l1.latency, pending)
        else:
            pending = mshr.get(block)
            if pending is not None:
                self.mshr_merges += 1
                completion = max(pending, cycle + l1.latency)
            else:
                extra = 0
                if len(mshr) >= self.config.mshr_entries:
                    # MSHR full: serialize behind the oldest outstanding miss.
                    self.mshr_stalls += 1
                    oldest = min(mshr.values())
                    extra = max(0, oldest - cycle)
                latency = self._miss_path(cycle, addr, l1, is_write)
                completion = cycle + l1.latency + latency + extra
                mshr[block] = completion
        if l1 is self.l1d and self.prefetcher is not None:
            for pf_addr in self.prefetcher.observe(addr, pc):
                self._prefetch(pf_addr, cycle)
        return completion

    def _prefetch(self, addr: int, cycle: int) -> None:
        """Issue a prefetch of *addr* into L2.

        The fill takes real time: the block is installed in the caches,
        but an MSHR entry carries its availability cycle, so a demand
        access arriving before the data does merges and pays the
        remaining latency instead of hitting instantly.
        """
        block = addr // self._line_bytes
        if block in self._mshr or self.l2.contains(addr):
            return
        if self.llc.lookup(addr, is_write=False, update_stats=False):
            latency = self.llc.latency
        else:
            latency = self.llc.latency + self.dram.access(addr)
            self.llc.fill(addr, prefetched=True)
        self.l2.fill(addr, prefetched=True)
        if len(self._mshr) < self.config.mshr_entries:
            self._mshr[block] = cycle + latency

    # -- public API ----------------------------------------------------------
    def load(self, cycle: int, addr: int, pc: int = 0) -> int:
        """Data-available cycle for a load issued at *cycle*."""
        return self._access(cycle, addr, self.l1d, is_write=False, pc=pc)

    def store(self, cycle: int, addr: int, pc: int = 0) -> int:
        """Completion cycle for a store issued (from the store buffer)."""
        return self._access(cycle, addr, self.l1d, is_write=True, pc=pc)

    def fetch(self, cycle: int, addr: int) -> int:
        """Instruction-available cycle for a fetch of *addr*."""
        return self._access(cycle, addr, self.l1i, is_write=False, pc=addr)

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

"""Differential test: the flat memory hierarchy against the model it replaced.

``_Reference*`` below is the hierarchy as it was before MSHR completions
moved into a heap, prefetch candidates into one pass and cache probes to
block numbers: an MSHR dict scanned on every access, address-taking cache
probes with an ``update_stats`` flag, and stride and next-line prefetcher
objects merged by a composite.  Random access sequences through both must
agree on every returned completion, every counter, each cache's sets and
its dirty and prefetched marks, and the MSHR file.
"""

from dataclasses import asdict, dataclass
from typing import Dict, List, Set

from hypothesis import given, settings, strategies as st

from repro.memory import DramModel, HierarchyConfig, MemoryHierarchy
from repro.memory.cache import CacheStats


class _ReferenceCache:
    def __init__(self, name, size_bytes, ways, line_bytes, latency):
        self.name = name
        self.ways = ways
        self.latency = latency
        self.num_sets = size_bytes // (ways * line_bytes)
        self._line_shift = line_bytes.bit_length() - 1
        self._sets: Dict[int, List[int]] = {}
        self._dirty: Set[int] = set()
        self._prefetched: Set[int] = set()
        self.stats = CacheStats()

    def lookup(self, addr, is_write=False, update_stats=True):
        block = addr >> self._line_shift
        blocks = self._sets.get(block % self.num_sets)
        stats = self.stats
        if update_stats:
            stats.accesses += 1
        if blocks is not None and block in blocks:
            if blocks[-1] != block:
                blocks.remove(block)
                blocks.append(block)
            if is_write:
                self._dirty.add(block)
            if update_stats:
                stats.hits += 1
                if block in self._prefetched:
                    self._prefetched.remove(block)
                    stats.prefetch_hits += 1
            return True
        if update_stats:
            stats.misses += 1
        return False

    def contains(self, addr):
        block = addr >> self._line_shift
        blocks = self._sets.get(block % self.num_sets)
        return blocks is not None and block in blocks

    def fill(self, addr, dirty=False, prefetched=False):
        block = addr >> self._line_shift
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


class _ReferenceNextLine:
    def __init__(self, line_bytes=64, degree=1):
        self.line_bytes = line_bytes
        self.degree = degree

    def observe(self, addr, pc):
        base = (addr // self.line_bytes) * self.line_bytes
        return [base + i * self.line_bytes for i in range(1, self.degree + 1)]


@dataclass
class _StreamEntry:
    pc: int = -1
    last_addr: int = 0
    stride: int = 0
    confidence: int = 0


class _ReferenceStride:
    def __init__(self, entries=256, threshold=2, degree=4):
        self.entries = entries
        self.threshold = threshold
        self.degree = degree
        self.table = [_StreamEntry() for _ in range(entries)]

    def observe(self, addr, pc):
        entry = self.table[pc % self.entries]
        if entry.pc != pc:
            entry.pc = pc
            entry.last_addr = addr
            entry.stride = 0
            entry.confidence = 0
            return []
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            entry.confidence = min(entry.confidence + 1, self.threshold + 1)
        else:
            entry.stride = stride
            entry.confidence = 0
        entry.last_addr = addr
        if entry.confidence >= self.threshold and entry.stride:
            return [addr + entry.stride * i for i in range(1, self.degree + 1)]
        return []


class _ReferenceComposite:
    def __init__(self, line_bytes=64):
        self.parts = [_ReferenceStride(), _ReferenceNextLine(line_bytes, 1)]

    def observe(self, addr, pc):
        out = []
        for part in self.parts:
            for candidate in part.observe(addr, pc):
                if candidate not in out:
                    out.append(candidate)
        return out


class _ReferenceHierarchy:
    def __init__(self, config: HierarchyConfig):
        self.config = c = config
        self.l1i = _ReferenceCache("L1I", c.l1i_size, c.l1i_ways, c.line_bytes, c.l1i_latency)
        self.l1d = _ReferenceCache("L1D", c.l1d_size, c.l1d_ways, c.line_bytes, c.l1d_latency)
        self.l2 = _ReferenceCache("L2", c.l2_size, c.l2_ways, c.line_bytes, c.l2_latency)
        self.llc = _ReferenceCache("LLC", c.llc_size, c.llc_ways, c.line_bytes, c.llc_latency)
        self.dram = DramModel(latency=c.dram_latency)
        self.prefetcher = (_ReferenceComposite(c.line_bytes)
                           if c.enable_prefetch else None)
        self._line_bytes = c.line_bytes
        self._mshr: Dict[int, int] = {}
        self.mshr_merges = 0
        self.mshr_stalls = 0

    def _reap_mshr(self, cycle):
        done = [b for b, when in self._mshr.items() if when <= cycle]
        for b in done:
            del self._mshr[b]

    def _miss_path(self, cycle, addr, l1, is_write):
        if self.l2.lookup(addr, False):
            latency = self.l2.latency
        elif self.llc.lookup(addr, False):
            latency = self.llc.latency
            self.l2.fill(addr)
        else:
            latency = self.llc.latency + self.dram.access(addr)
            self.llc.fill(addr)
            self.l2.fill(addr)
        l1.fill(addr, dirty=is_write)
        return latency

    def _access(self, cycle, addr, l1, is_write, pc):
        mshr = self._mshr
        if mshr:
            self._reap_mshr(cycle)
        block = addr // self._line_bytes
        if l1.lookup(addr, is_write):
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

    def _prefetch(self, addr, cycle):
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

    def load(self, cycle, addr, pc=0):
        return self._access(cycle, addr, self.l1d, is_write=False, pc=pc)

    def store(self, cycle, addr, pc=0):
        return self._access(cycle, addr, self.l1d, is_write=True, pc=pc)

    def fetch(self, cycle, addr):
        return self._access(cycle, addr, self.l1i, is_write=False, pc=addr)


def _state(memory) -> dict:
    """Everything observable about a hierarchy, as plain data."""
    out = {
        "mshr": dict(memory._mshr),
        "mshr_merges": memory.mshr_merges,
        "mshr_stalls": memory.mshr_stalls,
        "dram": (memory.dram.accesses, memory.dram.row_misses,
                 dict(memory.dram._open_rows)),
    }
    for cache in (memory.l1i, memory.l1d, memory.l2, memory.llc):
        out[cache.name] = (asdict(cache.stats), cache._sets, cache._dirty,
                           cache._prefetched)
    return out


#: Four PCs with their strides; a None address operand takes the PC's
#: next strided address, so the stride table trains and loses confidence.
_STRIDES = (8, 64, -64, 200)
_BASE = 1 << 16

_CONFIGS = st.builds(
    lambda sets, ways, mshr, prefetch: HierarchyConfig(
        l1i_size=64 * sets[0] * ways[0], l1i_ways=ways[0],
        l1d_size=64 * sets[0] * ways[0], l1d_ways=ways[0],
        l2_size=64 * sets[1] * ways[1], l2_ways=ways[1],
        llc_size=64 * sets[2] * ways[2], llc_ways=ways[2],
        mshr_entries=mshr, enable_prefetch=prefetch),
    sets=st.tuples(*[st.sampled_from([1, 2, 4])] * 3),
    ways=st.tuples(*[st.integers(min_value=1, max_value=4)] * 3),
    mshr=st.integers(min_value=1, max_value=4),
    prefetch=st.sampled_from([True, True, False]),
)

_OPS = st.lists(st.tuples(
    st.sampled_from(["load", "load", "store", "fetch", "clear"]),
    st.integers(min_value=0, max_value=len(_STRIDES) - 1),
    # Cycle advance: mostly within a fill's latency, sometimes past it.
    st.one_of(st.integers(min_value=0, max_value=8),
              st.integers(min_value=0, max_value=600)),
    # None: the PC's next strided address; else a random one in 40 blocks.
    st.one_of(st.none(), st.integers(min_value=0, max_value=40 * 64 - 1)),
), min_size=1, max_size=120)


@settings(max_examples=300, deadline=None)
@given(config=_CONFIGS, ops=_OPS)
def test_flat_hierarchy_matches_reference(config, ops):
    """Loads, stores and fetches at non-decreasing cycles from a few PCs,
    at strided and random addresses, on tiny caches with 1-4 MSHR
    entries (so evictions, writebacks and the full-MSHR path all happen),
    with MSHR clears in mid-sequence."""
    memory = MemoryHierarchy(config)
    reference = _ReferenceHierarchy(config)
    cycle = 0
    next_addr = [_BASE] * len(_STRIDES)
    for kind, pc_index, advance, addr in ops:
        cycle += advance
        if kind == "clear":
            memory.clear_mshr()
            reference._mshr.clear()
            assert _state(memory) == _state(reference)
            continue
        if addr is None:
            addr = next_addr[pc_index]
            next_addr[pc_index] += _STRIDES[pc_index]
        pc = 0x40 + pc_index
        if kind == "fetch":
            got, want = memory.fetch(cycle, addr), reference.fetch(cycle, addr)
        else:
            access = getattr(memory, kind)
            got = access(cycle, addr, pc)
            want = getattr(reference, kind)(cycle, addr, pc=pc)
        assert got == want
        assert _state(memory) == _state(reference)

"""Physical-register free list with conservation checking.

The free list is the structure every release scheme ultimately serves:
registers leave it at rename and must come back exactly once — via commit
of the redefining instruction, via early release, or via the flush walk.
This implementation verifies that conservation on every operation, so any
double free or leak in a scheme fails loudly instead of silently corrupting
an experiment.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Set

from .errors import DoubleFreeError, FreeListEmptyError


class FreeList:
    """FIFO free list over ptags ``0..capacity-1``.

    FIFO (rather than LIFO) order matches the per-way FIFO implementation
    sketched in paper section 4.2.1 and maximizes the reuse distance of a
    ptag, which makes use-after-free bugs *more* likely to corrupt state —
    exactly what we want a reproduction to detect.

    ``queue`` holds the free ptags, next to be allocated first; the rename
    unit reads its length directly.  Only :meth:`allocate` and
    :meth:`free` change it.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.queue = deque(range(capacity))
        self._free_set: Set[int] = set(range(capacity))
        self.total_allocations = 0
        self.total_frees = 0
        self.min_free_watermark = capacity

    def __len__(self) -> int:
        return len(self.queue)

    @property
    def free_count(self) -> int:
        return len(self.queue)

    def is_free(self, ptag: int) -> bool:
        return ptag in self._free_set

    def allocate(self) -> int:
        """Pop a free ptag; raises :class:`FreeListEmptyError` when empty."""
        if not self.queue:
            raise FreeListEmptyError(
                f"free list empty after {self.total_allocations} allocations"
            )
        ptag = self.queue.popleft()
        self._free_set.remove(ptag)
        self.total_allocations += 1
        if len(self.queue) < self.min_free_watermark:
            self.min_free_watermark = len(self.queue)
        return ptag

    def free(self, ptag: int) -> None:
        """Return *ptag*; raises :class:`DoubleFreeError` if already free."""
        if not 0 <= ptag < self.capacity:
            raise ValueError(f"ptag {ptag} out of range 0..{self.capacity - 1}")
        if ptag in self._free_set:
            raise DoubleFreeError(f"ptag {ptag} freed twice")
        self.queue.append(ptag)
        self._free_set.add(ptag)
        self.total_frees += 1

    def check_conservation(self, live_ptags: Iterable[int]) -> None:
        """Assert free + live partitions the ptag space exactly.

        *live_ptags* is the caller's view of every allocated ptag (SRT
        mappings + in-flight allocations).  Raises AssertionError with a
        diagnostic on any leak or overlap.
        """
        live = set(live_ptags)
        overlap = live & self._free_set
        if overlap:
            raise AssertionError(f"ptags both live and free: {sorted(overlap)[:8]}")
        missing = set(range(self.capacity)) - live - self._free_set
        if missing:
            raise AssertionError(f"leaked ptags (neither live nor free): {sorted(missing)[:8]}")

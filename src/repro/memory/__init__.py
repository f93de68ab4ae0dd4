"""Memory hierarchy: caches, prefetchers, DRAM, MSHRs."""

from .cache import Cache, CacheStats
from .hierarchy import DramModel, HierarchyConfig, MemoryHierarchy
from .prefetch import Prefetcher

__all__ = [
    "Cache", "CacheStats",
    "MemoryHierarchy", "HierarchyConfig", "DramModel",
    "Prefetcher",
]

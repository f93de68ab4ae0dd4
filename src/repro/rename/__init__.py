"""Rename substrate: free lists, SRTs, PRT, checkpoints, release schemes."""

from .errors import DoubleFreeError, FreeListEmptyError, RenameError
from .freelist import FreeList
from .physreg import PhysRegEntry, PhysRegTable
from .schemes import (
    SCHEME_NAMES,
    SCHEMES,
    AtrScheme,
    BaselineScheme,
    CombinedScheme,
    NonSpecEarlyReleaseScheme,
    ReleaseScheme,
    SchemeStats,
    make_scheme,
)
from .unit import CheckpointPool, DestRecord, RenameFile, RenameUnit

__all__ = [
    "RenameError", "DoubleFreeError", "FreeListEmptyError",
    "FreeList", "PhysRegTable", "PhysRegEntry",
    "CheckpointPool", "RenameUnit", "RenameFile", "DestRecord",
    "ReleaseScheme", "SchemeStats", "BaselineScheme", "NonSpecEarlyReleaseScheme",
    "AtrScheme", "CombinedScheme", "make_scheme", "SCHEMES", "SCHEME_NAMES",
]

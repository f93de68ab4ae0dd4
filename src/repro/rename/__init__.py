"""Rename substrate: free lists, SRT/RAT, PRT, checkpoints, release schemes."""

from .errors import DoubleFreeError, FreeListEmptyError, RenameError
from .freelist import FreeList
from .physreg import PhysRegEntry, PhysRegTable
from .rat import CheckpointPool, RegisterAliasTable
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
from .unit import DestRecord, RenameFile, RenameUnit

__all__ = [
    "RenameError", "DoubleFreeError", "FreeListEmptyError",
    "FreeList", "PhysRegTable", "PhysRegEntry",
    "RegisterAliasTable", "CheckpointPool",
    "RenameUnit", "RenameFile", "DestRecord",
    "ReleaseScheme", "SchemeStats", "BaselineScheme", "NonSpecEarlyReleaseScheme",
    "AtrScheme", "CombinedScheme", "make_scheme", "SCHEMES", "SCHEME_NAMES",
]

"""Rename-substrate error types.

These are *invariant violations*: a correct release scheme never raises
them.  The test suite provokes them deliberately (double frees, allocation
from an empty list) to prove the checking is live.
"""

from __future__ import annotations


class RenameError(RuntimeError):
    """Base class for rename-substrate invariant violations."""


class DoubleFreeError(RenameError):
    """A physical register was freed while already on the free list."""


class FreeListEmptyError(RenameError):
    """Allocation was attempted from an empty free list.

    The rename stage must stall before this happens (paper: stall when
    fewer than MAX_DEST x WIDTH entries remain), so reaching it indicates
    a scheme bug or a mis-sized reserve.
    """

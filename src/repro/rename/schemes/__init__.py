"""Register release schemes: baseline, nonspec-ER, ATR, combined.

The scheme catalog is the :data:`SCHEMES` registry: each entry is a
factory ``(redefine_delay) -> ReleaseScheme``.  Every layer that needs
the list of schemes — CLI ``choices=``, the sweep and validate grids,
``repro list schemes`` — derives it from here, so registering a new
scheme (in-tree or through the plugin hook, see :mod:`repro.registry`)
is one declaration, not four edits.
"""

from .atr import AtrScheme
from .base import ReleaseScheme, SchemeStats, bound_hook
from .baseline import BaselineScheme
from .combined import CombinedScheme
from .nonspec import NonSpecEarlyReleaseScheme
from .tracking import ConsumerTrackingScheme
from ...registry import Registry

SCHEMES: Registry = Registry(
    "scheme", doc="register release schemes (paper Figure 10)")


@SCHEMES.register("baseline")
def _make_baseline(redefine_delay: int = 0) -> ReleaseScheme:
    return BaselineScheme()


@SCHEMES.register("nonspec_er")
def _make_nonspec(redefine_delay: int = 0) -> ReleaseScheme:
    return NonSpecEarlyReleaseScheme()


@SCHEMES.register("atr")
def _make_atr(redefine_delay: int = 0) -> ReleaseScheme:
    return AtrScheme(redefine_delay=redefine_delay)


@SCHEMES.register("combined")
def _make_combined(redefine_delay: int = 0) -> ReleaseScheme:
    return CombinedScheme(redefine_delay=redefine_delay)


#: The built-in scheme names, frozen at import (back-compat constant;
#: use ``SCHEMES.names()`` for the live set including plugins).
SCHEME_NAMES = SCHEMES.names()


def make_scheme(name: str, redefine_delay: int = 0) -> ReleaseScheme:
    """Factory for a registered release scheme.

    Args:
        name: A name in :data:`SCHEMES` (the paper's four, or a plugin).
        redefine_delay: Pipeline delay of the ATR redefinition signal
            (paper Figure 13 evaluates 0, 1, 2).
    """
    try:
        factory = SCHEMES.get(name)
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {SCHEMES.names()}"
        ) from None
    return factory(redefine_delay=redefine_delay)


__all__ = [
    "ReleaseScheme", "SchemeStats", "ConsumerTrackingScheme",
    "BaselineScheme", "NonSpecEarlyReleaseScheme", "AtrScheme", "CombinedScheme",
    "make_scheme", "bound_hook", "SCHEMES", "SCHEME_NAMES",
]

"""Experiment harness: one module per paper figure, plus the runner.

Each ``figNN`` module exposes ``run(...) -> result`` where the result has
a ``render()`` producing the same rows/series the paper reports, with
measured-vs-paper comparison lines.

Figure modules are *discovered*, not imported by hand: every
``fig*``/``sec*`` module in this package is lazily registered in the
:data:`FIGURES` registry (the module imports on first use), and
out-of-tree figures can join through the plugin hook
(:mod:`repro.registry`) by registering any object with a
``run(...) -> result`` callable.  :data:`ALL_FIGURES` is the same
registry under its historical name; ``repro figure`` and ``repro list
figures`` both read it.
"""

import importlib
import pkgutil
import re

from ..registry import Registry
from . import expectations
from .report import compare_line, format_table, pct, shorten
from .runner import (
    DETAILED,
    CellResult,
    CellSpec,
    RegionSpec,
    TierPolicy,
    cell_spec,
    clear_result_cache,
    default_fp_suite,
    default_instructions,
    default_int_suite,
    geomean,
    mean,
    region_report,
    resolve_specs,
    run_cell,
    speedup,
    suite_speedup,
)

#: Figure registry: name -> module-like object with ``run(...)``.
FIGURES: Registry = Registry("figure", doc="paper figure generators")


def _lazy_import(name: str):
    return lambda: importlib.import_module(f".{name}", __package__)


for _info in pkgutil.iter_modules(__path__):
    if re.fullmatch(r"(fig|sec)\d+", _info.name):
        FIGURES.register_lazy(_info.name, _lazy_import(_info.name))

#: Historical name for the figure catalog (the registry itself, which is
#: mapping-shaped: ``name in ALL_FIGURES``, iteration, ``[name]``).
ALL_FIGURES = FIGURES


def __getattr__(name):
    # `repro.experiments.fig06` keeps working without eagerly importing
    # every figure module at package import.
    if name in FIGURES:
        return FIGURES.get(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "run_cell", "CellResult", "CellSpec", "RegionSpec", "cell_spec",
    "TierPolicy", "DETAILED",
    "region_report", "resolve_specs", "clear_result_cache",
    "geomean", "mean", "speedup", "suite_speedup",
    "default_instructions", "default_int_suite", "default_fp_suite",
    "format_table", "compare_line", "pct", "shorten",
    "expectations", "ALL_FIGURES", "FIGURES",
]

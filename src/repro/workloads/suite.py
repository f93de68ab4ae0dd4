"""Workload suite registry (paper Table 2, grown sideways with variants).

Every SPEC CPU 2017 benchmark the paper evaluates is a declarative
:class:`Workload` entry in the :data:`WORKLOADS` registry: builder, int/fp
class, and a list of named **input variants** —
alternate refs of the same kernel, hand-tuned seed parameterizations that
change the embedded data (hash contents, branch patterns, pointer chains)
without changing program structure, so lint findings and the static
atomic-region proof carry over while the dynamic trace genuinely differs.

A variant is addressed with a ``/``-qualified name — ``505.mcf_r/ref2`` —
anywhere a benchmark name is accepted (``CellSpec.benchmark``, the CLI,
``build_trace``); the unqualified name is the default ``ref``.  A trace
of n instructions is one emulator run of the program built with
``iterations = n``.  Traces are cached per (qualified name, length)
within a process, bounded LRU, so experiment sweeps that re-simulate the
same workload under many configurations only emulate it once and long
sweeps cannot grow memory without limit.

Out-of-tree workloads plug in via the registry's discovery hook (see
:mod:`repro.registry`): register a :class:`Workload` under a new name
from a ``REPRO_PLUGINS`` module and every layer — ``repro run``,
``repro list``, sweeps — can name it.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..frontend import Emulator, Trace
from ..isa import Program
from ..registry import Registry
from . import kernels_fp, kernels_int

VARIANT_SEP = "/"
DEFAULT_VARIANT = "ref"


@dataclass(frozen=True)
class WorkloadVariant:
    """One named input set of a workload (an alternate SPEC 'ref').

    ``params`` are extra keyword arguments for the builder (typically a
    ``seed`` reshaping the embedded data); ``builder`` overrides the
    workload's builder entirely (e.g. a synthesizer-profile closure).
    ``iterations`` never appears in ``params`` — trace construction owns
    the iteration count (``iterations = n`` for an n-instruction trace).
    """

    name: str
    params: Dict[str, object] = field(default_factory=dict)
    builder: Optional[Callable[..., Program]] = None
    note: str = ""

    def __post_init__(self):
        if "iterations" in self.params:
            raise ValueError(
                f"variant {self.name!r}: 'iterations' is not a variant "
                f"parameter (trace construction scales it)")


@dataclass(frozen=True)
class Workload:
    """One declarative suite entry: how to build a benchmark's program.

    ``builder(iterations=..., **params)`` returns the program; its
    ``iterations`` may only set the outer-loop bound, since
    :func:`build_trace` passes ``iterations = n`` for an n-instruction
    trace and relies on every iteration executing at least one
    instruction.
    """

    name: str
    builder: Callable[..., Program]
    cls: str  #: "int" | "fp" | anything else (plugins; counts as non-fp)
    variants: Tuple[WorkloadVariant, ...] = ()

    def variant(self, name: Optional[str]) -> Optional[WorkloadVariant]:
        """The named variant, or ``None`` for the default ref."""
        if name is None or name == DEFAULT_VARIANT:
            return None
        for variant in self.variants:
            if variant.name == name:
                return variant
        known = [DEFAULT_VARIANT] + [v.name for v in self.variants]
        raise KeyError(
            f"unknown variant {name!r} of {self.name}; "
            f"known: {', '.join(known)}")

    def build(self, iterations: int,
              variant: Optional[str] = None, **overrides) -> Program:
        """Build the program for one variant at one iteration count."""
        chosen = self.variant(variant)
        builder = self.builder
        params: Dict[str, object] = {}
        if chosen is not None:
            if chosen.builder is not None:
                builder = chosen.builder
            params.update(chosen.params)
        params.update(overrides)
        return builder(iterations=iterations, **params)


#: The workload registry: every benchmark (and, via plugins, any
#: out-of-tree workload) as pure data.
WORKLOADS: Registry = Registry(
    "workload", doc="benchmark programs (SPEC 2017 stand-ins + plugins)")


def _ref2(seed: int, note: str = "alternate data ref") -> WorkloadVariant:
    return WorkloadVariant("ref2", params={"seed": seed}, note=note)


def _register_suite() -> None:
    int_entries = [
        ("500.perlbench_r", kernels_int.perlbench,
         (_ref2(101, "second hash corpus: different string/table data"),)),
        ("502.gcc_r", kernels_int.gcc,
         (_ref2(102, "alternate IR stream: reshaped opcode dispatch"),)),
        ("505.mcf_r", kernels_int.mcf,
         (_ref2(103, "second network: different arc costs/pointer chains"),)),
        ("520.omnetpp_r", kernels_int.omnetpp, ()),
        ("523.xalancbmk_r", kernels_int.xalancbmk, ()),
        ("525.x264_r", kernels_int.x264, ()),
        ("531.deepsjeng_r", kernels_int.deepsjeng,
         (_ref2(106, "second position set: different search shape"),)),
        ("541.leela_r", kernels_int.leela, ()),
        ("548.exchange2_r", kernels_int.exchange2, ()),
        ("557.xz_r", kernels_int.xz,
         (_ref2(109, "second input block: different match structure"),)),
    ]
    fp_entries = [
        ("503.bwaves_r", kernels_fp.bwaves,
         (_ref2(111, "second grid: different flow-field data"),)),
        ("507.cactuBSSN_r", kernels_fp.cactubssn, ()),
        ("508.namd_r", kernels_fp.namd, ()),
        ("510.parest_r", kernels_fp.parest, ()),
        ("511.povray_r", kernels_fp.povray, ()),
        ("519.lbm_r", kernels_fp.lbm,
         (_ref2(116, "second lattice: different site occupancy"),)),
        ("521.wrf_r", kernels_fp.wrf, ()),
        ("526.blender_r", kernels_fp.blender, ()),
        ("527.cam4_r", kernels_fp.cam4, ()),
        ("538.imagick_r", kernels_fp.imagick, ()),
        ("544.nab_r", kernels_fp.nab, ()),
        ("549.fotonik3d_r", kernels_fp.fotonik3d, ()),
        ("554.roms_r", kernels_fp.roms,
         (_ref2(123, "second bathymetry: different coastal data"),)),
    ]
    for name, builder, variants in int_entries:
        WORKLOADS.register(name, Workload(name, builder, "int",
                                          variants=variants))
    for name, builder, variants in fp_entries:
        WORKLOADS.register(name, Workload(name, builder, "fp",
                                          variants=variants))


_register_suite()

#: Built-in suite membership, frozen at import (back-compat constants —
#: plugin workloads intentionally do not appear; derive live views from
#: ``WORKLOADS`` instead).
SPEC_INT: Tuple[str, ...] = tuple(
    name for name in WORKLOADS.names() if WORKLOADS.get(name).cls == "int")
SPEC_FP: Tuple[str, ...] = tuple(
    name for name in WORKLOADS.names() if WORKLOADS.get(name).cls == "fp")
ALL_BENCHMARKS: Tuple[str, ...] = SPEC_INT + SPEC_FP


def split_variant(name: str) -> Tuple[str, Optional[str]]:
    """``"505.mcf_r/ref2"`` -> ``("505.mcf_r", "ref2")``; no variant -> None."""
    if VARIANT_SEP in name:
        base, _, variant = name.partition(VARIANT_SEP)
        return base, (variant or None)
    return name, None


def workload_names(variants: bool = True) -> Tuple[str, ...]:
    """Every addressable workload name, registry-derived.

    With *variants*, variant-qualified names follow their base entry
    (``505.mcf_r``, ``505.mcf_r/ref2``, …) — the ``repro list`` view.
    """
    names: List[str] = []
    for base in WORKLOADS.names():
        names.append(base)
        if variants:
            entry = WORKLOADS.get(base)
            names.extend(f"{base}{VARIANT_SEP}{v.name}"
                         for v in getattr(entry, "variants", ()))
    return tuple(names)


def is_fp(name: str) -> bool:
    base, _ = split_variant(name)
    if base not in WORKLOADS:
        return False
    return WORKLOADS.get(base).cls == "fp"


def workload_for(name: str) -> Tuple[Workload, Optional[str]]:
    """Resolve *name* to its registry entry + optional variant name."""
    base, variant = split_variant(name)
    try:
        entry = WORKLOADS.get(base)
    except KeyError:
        raise KeyError(
            f"unknown benchmark {base!r}; known: {', '.join(ALL_BENCHMARKS)}"
        ) from None
    entry.variant(variant)  # validate the variant exists
    return entry, variant


def builder_for(name: str) -> Callable[..., Program]:
    """A builder for *name* (variant parameters pre-bound).

    The returned callable takes ``iterations`` (positionally or by
    keyword) like the raw kernel builders do.
    """
    entry, variant = workload_for(name)

    def build(iterations: int = 4, **overrides) -> Program:
        return entry.build(iterations, variant=variant, **overrides)

    build.__name__ = f"build_{name}"
    return build


def resolve(name: str) -> str:
    """Accept short names ('mcf', 'x264', 'mcf/ref2') as well as full ids."""
    base, variant = split_variant(name)
    if base not in WORKLOADS:
        matches = [full for full in WORKLOADS.names() if base in full]
        if len(matches) != 1:
            raise KeyError(
                f"ambiguous or unknown benchmark {base!r}: {matches}")
        base = matches[0]
    entry = WORKLOADS.get(base)
    if variant is not None and variant != DEFAULT_VARIANT:
        entry.variant(variant)  # validate
        return f"{base}{VARIANT_SEP}{variant}"
    # an explicit "/ref" is the default input: normalize to the bare name
    # so one cell never earns two spec digests
    return base


#: Per-process trace cache, keyed on (variant-qualified name, length) and
#: bounded LRU so long many-workload sweeps cannot grow without limit.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"
_trace_cache: "OrderedDict[Tuple[str, int], Trace]" = OrderedDict()


def _trace_cache_max() -> int:
    text = os.environ.get(TRACE_CACHE_ENV, "32")
    try:
        limit = int(text)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{TRACE_CACHE_ENV} must be an integer >= 1, "
                         f"got {text!r}")
    return limit


def build_trace(name: str, instructions: int = 20_000, use_cache: bool = True) -> Trace:
    """The dynamic trace of *name*'s first *instructions* instructions.

    One functional pass: the program is built once with ``iterations =
    instructions`` and emulated once for *instructions* instructions.
    Every builder's ``iterations`` is only the outer-loop bound, and each
    iteration executes at least one instruction, so the run always
    stops at *instructions* before the program halts (a program that
    halts earlier yields a shorter trace).  Each entry carries the value
    it committed, which is what fast-forward replays.
    """
    if instructions < 1:
        raise ValueError(f"a trace needs instructions >= 1, got {instructions}")
    name = resolve(name)
    key = (name, instructions)
    if use_cache:
        limit = _trace_cache_max()  # a bad limit fails before any emulation
        if key in _trace_cache:
            _trace_cache.move_to_end(key)
            return _trace_cache[key]
    entry, variant = workload_for(name)
    program = entry.build(instructions, variant=variant)
    trace = Emulator(program).run(max_instructions=instructions)
    trace.name = name
    if use_cache:
        _trace_cache[key] = trace
        _trace_cache.move_to_end(key)
        while len(_trace_cache) > limit:
            _trace_cache.popitem(last=False)
    return trace


def clear_trace_cache() -> None:
    _trace_cache.clear()

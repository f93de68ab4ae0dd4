"""Workloads: SPEC-named kernels, suite registry, synthesis, SimPoints."""

from . import kernels_fp, kernels_int
from .simpoint import (
    SimPoint,
    basic_block_vectors,
    kmeans,
    pick_simpoints,
    slice_trace,
    weighted_mean,
)
from .suite import (
    ALL_BENCHMARKS,
    SPEC_FP,
    SPEC_INT,
    WORKLOADS,
    Workload,
    WorkloadVariant,
    build_trace,
    builder_for,
    clear_trace_cache,
    is_fp,
    resolve,
    split_variant,
    workload_for,
    workload_names,
)
from .synthesis import PROFILES, WorkloadProfile, synthesize

__all__ = [
    "SPEC_INT", "SPEC_FP", "ALL_BENCHMARKS",
    "WORKLOADS", "Workload", "WorkloadVariant",
    "build_trace", "builder_for", "resolve", "is_fp",
    "split_variant", "workload_for", "workload_names",
    "clear_trace_cache",
    "WorkloadProfile", "synthesize", "PROFILES",
    "SimPoint", "basic_block_vectors", "kmeans", "pick_simpoints",
    "slice_trace", "weighted_mean",
    "kernels_int", "kernels_fp",
]

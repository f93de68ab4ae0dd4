"""Workloads: suite registry, kernels, synthesis, SimPoint-lite."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.frontend import run_program
from repro.workloads import (
    ALL_BENCHMARKS,
    PROFILES,
    SPEC_FP,
    SPEC_INT,
    WorkloadProfile,
    basic_block_vectors,
    build_trace,
    builder_for,
    is_fp,
    kmeans,
    pick_simpoints,
    resolve,
    slice_trace,
    synthesize,
    weighted_mean,
    workload_names,
)

import numpy as np

#: A (pc, next_pc, taken, mem_addr) digest of every ref's trace at one
#: length: any change to a ref's dynamic instruction stream fails here.
TRACE_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "trace_digests.json").read_text())


#: A digest of every ref's initial data image at ``builder_for(name)(4)``:
#: the trace digests alone miss data values a ref never branches on.
DATA_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "data_digests.json").read_text())


def data_digest(program) -> str:
    """sha256 of the image's addresses, then its values, in address order."""
    data = program.data
    addrs = np.fromiter(data.keys(), dtype="<i8", count=len(data))
    values = np.fromiter(data.values(), dtype="<i8", count=len(data))
    order = np.argsort(addrs, kind="stable")
    return hashlib.sha256(
        addrs[order].tobytes() + values[order].tobytes()).hexdigest()


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for e in trace.entries:
        digest.update(
            f"{e.pc} {e.next_pc} {int(e.taken)} {e.mem_addr}\n".encode())
    return digest.hexdigest()


class TestSuiteRegistry:
    def test_table2_benchmark_counts(self):
        """Paper Table 2: 10 integer + 13 floating-point benchmarks."""
        assert len(SPEC_INT) == 10
        assert len(SPEC_FP) == 13
        assert len(ALL_BENCHMARKS) == 23

    def test_paper_names_present(self):
        for name in ("505.mcf_r", "520.omnetpp_r", "508.namd_r", "549.fotonik3d_r"):
            assert name in ALL_BENCHMARKS

    def test_resolve_short_names(self):
        assert resolve("mcf") == "505.mcf_r"
        assert resolve("548.exchange2_r") == "548.exchange2_r"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(KeyError):
            resolve("doom")

    def test_is_fp(self):
        assert is_fp("508.namd_r")
        assert not is_fp("505.mcf_r")

    def test_builder_for_unknown(self):
        with pytest.raises(KeyError):
            builder_for("nope")

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_every_kernel_builds_and_runs(self, name):
        trace = build_trace(name, 1500)
        assert len(trace) == 1500
        assert trace.name == name

    def test_trace_cache_returns_same_object(self):
        a = build_trace("mcf", 1500)
        b = build_trace("mcf", 1500)
        assert a is b

    def test_traces_are_deterministic(self):
        a = build_trace("xz", 1200, use_cache=False)
        b = build_trace("xz", 1200, use_cache=False)
        assert all(x.pc == y.pc and x.mem_addr == y.mem_addr
                   for x, y in zip(a.entries, b.entries))

    def test_fp_kernels_use_vector_registers(self):
        trace = build_trace("namd", 1500)
        from repro.isa import is_vector
        assert any(is_vector(e.instr.opcode) for e in trace)

    def test_int_kernels_branch_density_plausible(self):
        trace = build_trace("leela", 2000)
        assert 0.05 < trace.summary()["branch_ratio"] < 0.4


def test_importing_the_package_loads_no_numpy():
    """numpy is imported only inside the functions that draw kernel data
    or cluster BBVs, so a CLI call that builds no kernel never loads it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = ("import sys, repro.cli, repro.harness, repro.workloads; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class TestTraceBuild:
    def test_every_ref_is_pinned(self):
        assert sorted(TRACE_DIGESTS["digests"]) == sorted(
            workload_names(variants=True))

    @pytest.mark.parametrize("name", sorted(TRACE_DIGESTS["digests"]))
    def test_trace_matches_pinned_digest(self, name):
        trace = build_trace(name, TRACE_DIGESTS["instructions"])
        assert len(trace) == TRACE_DIGESTS["instructions"]
        assert trace_digest(trace) == TRACE_DIGESTS["digests"][name]

    def test_every_data_image_matches_pinned_digest(self):
        assert sorted(DATA_DIGESTS["digests"]) == sorted(
            workload_names(variants=True))
        drifted = [name for name, digest in sorted(DATA_DIGESTS["digests"].items())
                   if data_digest(builder_for(name)(DATA_DIGESTS["iterations"]))
                   != digest]
        assert not drifted

    def test_fp_data_image_is_held_as_blocks(self):
        """bwaves' image is two 2 MiB arrays of 262,144 words.  Held as
        two blocks, building it retains 4 MiB and peaks at about 8 MiB; a
        per-word dict retained 52 MiB and peaked at 72 MiB."""
        tracemalloc.start()  # numpy is imported above, so not counted here
        try:
            program = builder_for("503.bwaves_r")(4)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(program.data.blocks) == 2
        assert retained < 8 << 20, retained
        assert peak < 24 << 20, peak

    @pytest.mark.parametrize("count", [0, 1, 700])
    @pytest.mark.parametrize("bound,start", [
        (1, 0), (2, 0), (3, 0), (256, 0), (1 << 16, 0), (1 << 16, 1),
        (1 << 20, 0), (1 << 20, 1), (1 << 30, 0)])
    def test_bulk_draw_matches_randrange_loop(self, bound, start, count):
        """``1 << 16`` keeps 17 bits and rejects about half the words."""
        from repro.workloads.kernels_int import _lcg_words

        rng = random.Random(11)
        expected = [rng.randrange(start, bound) for _ in range(count)]
        assert _lcg_words(11, count, bound, start=start).tolist() == expected

    @pytest.mark.parametrize("name", ["505.mcf_r", "508.namd_r"])
    def test_cold_build_is_one_functional_pass(self, name, monkeypatch):
        """One program build and one emulator run of exactly n
        instructions: ``iterations = n`` always covers n instructions."""
        from repro.frontend import Emulator
        from repro.workloads import Workload

        calls = {"build": 0, "run": 0, "emulated": 0}
        build, run = Workload.build, Emulator.run

        def counting_build(self, *args, **kwargs):
            calls["build"] += 1
            return build(self, *args, **kwargs)

        def counting_run(self, *args, **kwargs):
            trace = run(self, *args, **kwargs)
            calls["run"] += 1
            calls["emulated"] += len(trace)
            return trace

        monkeypatch.setattr(Workload, "build", counting_build)
        monkeypatch.setattr(Emulator, "run", counting_run)
        trace = build_trace(name, 3000, use_cache=False)
        assert len(trace) == 3000
        assert calls == {"build": 1, "run": 1, "emulated": 3000}

    @pytest.mark.parametrize("instructions", [0, -5])
    def test_rejects_non_positive_length(self, instructions):
        with pytest.raises(ValueError, match="instructions"):
            build_trace("505.mcf_r", instructions)


class TestVariants:
    """Multi-ref workload variants: ``505.mcf_r/ref2`` style names."""

    def test_at_least_eight_benchmarks_have_a_second_ref(self):
        from repro.workloads import WORKLOADS

        with_refs = [w.name for w in WORKLOADS.values() if w.variants]
        assert len(with_refs) >= 6

    def test_workload_names_include_variants(self):
        from repro.workloads import workload_names

        names = workload_names(variants=True)
        assert "505.mcf_r" in names and "505.mcf_r/ref2" in names
        assert len(names) >= 29
        # base names only when variants are excluded
        assert workload_names(variants=False) == ALL_BENCHMARKS

    def test_split_and_resolve_variant(self):
        from repro.workloads import split_variant

        assert split_variant("505.mcf_r/ref2") == ("505.mcf_r", "ref2")
        assert split_variant("505.mcf_r") == ("505.mcf_r", None)
        assert resolve("mcf/ref2") == "505.mcf_r/ref2"
        assert resolve("505.mcf_r/ref") == "505.mcf_r"

    def test_unknown_variant_rejected(self):
        from repro.workloads import workload_for

        with pytest.raises(KeyError, match="ref9"):
            workload_for("505.mcf_r/ref9")

    def test_is_fp_ignores_variant(self):
        assert is_fp("503.bwaves_r/ref2")
        assert not is_fp("505.mcf_r/ref2")

    def test_variant_changes_data_not_structure(self):
        base = build_trace("505.mcf_r", 1500, use_cache=False)
        ref2 = build_trace("505.mcf_r/ref2", 1500, use_cache=False)
        assert ref2.name == "505.mcf_r/ref2"
        # same static program shape (instruction mix), different dynamic
        # behaviour somewhere in the trace
        assert base.summary()["branch_ratio"] == pytest.approx(
            ref2.summary()["branch_ratio"], abs=0.15)
        assert any(x.mem_addr != y.mem_addr or x.pc != y.pc
                   for x, y in zip(base.entries, ref2.entries))

    def test_variant_traces_deterministic(self):
        a = build_trace("531.deepsjeng_r/ref2", 1200, use_cache=False)
        b = build_trace("531.deepsjeng_r/ref2", 1200, use_cache=False)
        assert all(x.pc == y.pc and x.mem_addr == y.mem_addr
                   for x, y in zip(a.entries, b.entries))

    def test_variant_rejects_iterations_param(self):
        from repro.workloads import WorkloadVariant

        with pytest.raises(ValueError, match="iterations"):
            WorkloadVariant("bad", params={"iterations": 9})


class TestTraceCache:
    def test_cache_keys_include_variant(self):
        from repro.workloads.suite import _trace_cache, clear_trace_cache

        clear_trace_cache()
        base = build_trace("505.mcf_r", 1500)
        ref2 = build_trace("505.mcf_r/ref2", 1500)
        assert base is not ref2
        assert ("505.mcf_r", 1500) in _trace_cache
        assert ("505.mcf_r/ref2", 1500) in _trace_cache
        assert build_trace("mcf/ref2", 1500) is ref2  # short name, same key

    def test_cache_is_bounded_lru(self, monkeypatch):
        from repro.workloads.suite import _trace_cache, clear_trace_cache

        monkeypatch.setenv("REPRO_TRACE_CACHE", "2")
        clear_trace_cache()
        build_trace("mcf", 1000)
        xz = build_trace("xz", 1000)
        build_trace("lbm", 1000)  # evicts mcf (oldest)
        assert len(_trace_cache) == 2
        assert ("505.mcf_r", 1000) not in _trace_cache
        assert build_trace("xz", 1000) is xz  # survivor still cached
        clear_trace_cache()

    def test_lru_touch_on_hit(self, monkeypatch):
        from repro.workloads.suite import _trace_cache, clear_trace_cache

        monkeypatch.setenv("REPRO_TRACE_CACHE", "2")
        clear_trace_cache()
        mcf = build_trace("mcf", 1000)
        build_trace("xz", 1000)
        build_trace("mcf", 1000)  # touch: mcf becomes most-recent
        build_trace("lbm", 1000)  # evicts xz, not mcf
        assert build_trace("mcf", 1000) is mcf
        assert ("557.xz_r", 1000) not in _trace_cache
        clear_trace_cache()

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_cache_limit_must_be_a_positive_int(self, monkeypatch, value):
        """Checked before anything is built: "abc" used to raise only after
        the trace was emulated and cached, and values below 1 read as 1."""
        from repro.workloads import Workload

        monkeypatch.setenv("REPRO_TRACE_CACHE", value)
        monkeypatch.setattr(Workload, "build",
                            lambda *args, **kwargs: pytest.fail("built"))
        with pytest.raises(ValueError, match="REPRO_TRACE_CACHE"):
            build_trace("505.mcf_r", 1234)


class TestSynthesis:
    def test_profiles_generate_runnable_programs(self):
        for profile in PROFILES.values():
            trace = run_program(synthesize(profile, iterations=2),
                                max_instructions=3000)
            assert len(trace) > 10

    def test_taken_bias_respected(self):
        low = WorkloadProfile(branch_prob=1.0, taken_bias=0.15, blocks=12, seed=3)
        high = WorkloadProfile(branch_prob=1.0, taken_bias=0.85, blocks=12, seed=3)
        t_low = run_program(synthesize(low, iterations=12), max_instructions=8000)
        t_high = run_program(synthesize(high, iterations=12), max_instructions=8000)
        assert t_low.summary()["taken_ratio"] < t_high.summary()["taken_ratio"]

    def test_vector_weight_emits_vectors(self):
        from repro.isa import is_vector
        profile = WorkloadProfile(vec_weight=5, blocks=6, seed=1)
        trace = run_program(synthesize(profile, iterations=2), max_instructions=2000)
        assert any(is_vector(e.instr.opcode) for e in trace)

    def test_same_seed_same_program(self):
        p = WorkloadProfile(seed=42)
        assert synthesize(p, 2).instructions == synthesize(p, 2).instructions


class TestSimPoint:
    def test_bbv_rows_are_distributions(self):
        trace = build_trace("deepsjeng", 4000)
        bbvs, leaders = basic_block_vectors(trace, interval=500)
        assert bbvs.shape[1] == len(leaders)
        assert np.allclose(bbvs.sum(axis=1), 1.0)

    def test_kmeans_assigns_all_rows(self):
        rng = np.random.default_rng(0)
        data = np.vstack([rng.normal(0, 0.1, (10, 4)), rng.normal(5, 0.1, (10, 4))])
        assignment = kmeans(data, k=2, seed=1)
        assert len(assignment) == 20
        # the two blobs separate
        assert len(set(assignment[:10])) == 1
        assert len(set(assignment[10:])) == 1
        assert assignment[0] != assignment[10]

    def test_simpoint_weights_sum_to_one(self):
        trace = build_trace("x264", 6000)
        simpoints = pick_simpoints(trace, interval=1000, max_k=4)
        assert simpoints
        assert sum(sp.weight for sp in simpoints) == pytest.approx(1.0)

    def test_slice_respects_bounds(self):
        trace = build_trace("x264", 6000)
        simpoints = pick_simpoints(trace, interval=1000, max_k=3)
        for sp in simpoints:
            sub = slice_trace(trace, sp)
            assert len(sub) == sp.length
            assert sub.entries[0].seq == 0

    def test_weighted_mean(self):
        trace = build_trace("xz", 4000)
        simpoints = pick_simpoints(trace, interval=1000, max_k=3)
        assert weighted_mean([2.0] * len(simpoints), simpoints) == pytest.approx(2.0)

    def test_weighted_mean_validates_length(self):
        trace = build_trace("xz", 4000)
        simpoints = pick_simpoints(trace, interval=1000, max_k=2)
        with pytest.raises(ValueError):
            weighted_mean([1.0] * (len(simpoints) + 1), simpoints)

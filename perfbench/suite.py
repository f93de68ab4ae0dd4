"""The three benchmark workloads, their output checks and their metrics.

Every workload is batch and closed-loop and runs in the benchmark process
alone: one process drives a fixed input set and waits for each result,
with no worker processes (the host has two cores and other machines'
work on them; a second worker would time the scheduler, not the code).
A workload is split into :meth:`plan` (draw this pass's inputs from the
seeded generator: the cell or ref order, and the SimPoint k-means seeds)
and :meth:`execute` (run the planned pass, optionally traced), so the
traced run can replay exactly the inputs of an untraced pass.

A pass reports its timed wall seconds, the work it did, the time of each
operation (a trace build, a cell or a ref), the operations it attempted,
the operations that failed (raised, or failed their output check) and a
digest per operation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from . import env
from .env import RunDir
from .tracer import Tracer

REFERENCE = Path(__file__).resolve().parent / "reference.json"

RF_SIZE = 64
DETAILED_BENCHMARKS = ("505.mcf_r", "531.deepsjeng_r", "503.bwaves_r",
                       "508.namd_r")
DETAILED_INSTRUCTIONS = 5_000
SCHEMES = ("baseline", "atr")
TIERED_BENCHMARKS = ("505.mcf_r", "503.bwaves_r")
TIERED_INSTRUCTIONS = 50_000
#: Every int kernel's first input ref and one fp kernel, whose
#: half-million-word data image is what the memory lints scan.
LINT_REFS = ("500.perlbench_r", "502.gcc_r", "505.mcf_r", "520.omnetpp_r",
             "523.xalancbmk_r", "525.x264_r", "531.deepsjeng_r",
             "541.leela_r", "548.exchange2_r", "557.xz_r", "503.bwaves_r")
#: Minimum timed seconds of store-warm re-resolution per detailed pass.
WARM_SECONDS = 0.25
#: A tiered cell whose IPC is further than this from the full-detailed
#: reference counts as failed.  Sampling error alone reaches about 25%
#: on some k-means seeds (mcf), so this bound catches a broken stitcher
#: or warmup, not ordinary SimPoint error.
TIERED_MAX_ERR_PCT = 50.0


def load_reference(path: Path = REFERENCE) -> Dict:
    return json.loads(path.read_text())


def stats_digest(result) -> str:
    """Digest of every SimStats and SchemeStats field of a cell."""
    payload = json.dumps({"stats": result.stats.to_dict(),
                          "scheme": result.scheme_stats.to_dict()},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cell_key(benchmark: str, scheme: str) -> str:
    return f"{benchmark}/{scheme}"


@dataclass
class PassResult:
    wall: float = 0.0  #: timed seconds
    work: float = 0.0  #: instructions (simulation) or refs (lint) done
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    #: Host seconds of each operation (trace build, cell, ref) of the pass.
    op_times: Dict[str, float] = field(default_factory=dict)
    #: Host-loop times sampled just before and after each operation
    #: (untraced passes only), and the seconds the sampling took.
    op_loops: Dict[str, List[float]] = field(default_factory=dict)
    sampling_s: float = 0.0
    #: Workload-specific figures (warm cells/s, tiered IPC error, ...).
    figures: Dict[str, float] = field(default_factory=dict)
    #: Sweep progress (per-cell times, retries) and the sweep's own wall
    #: seconds, for the traced run's harness metrics.
    progress: object = None
    sweep_wall: float = 0.0
    #: Tiered window manifests, for the detailed share.
    tier_infos: List[dict] = field(default_factory=list)

    def fail(self, op: str, why: str) -> None:
        self.failures.append(f"{op}: {why}")

    def op_cost(self, op: str) -> float:
        """*op*'s seconds at the reference host speed."""
        return env.at_reference_speed(self.op_times[op], self.op_loops[op])


class Workload:
    name = "abstract"
    #: What one unit of ``work`` is (the throughput's numerator).
    work_unit = ""
    #: Figures printed per workload: name -> unit.
    figures: Dict[str, str] = {}

    def __init__(self, reference: Dict):
        self.reference = reference

    def plan(self, rng: random.Random):
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed set-up, once per run before its passes."""

    def execute(self, plan, rundir: RunDir,
                tracer: Optional[Tracer] = None) -> PassResult:
        raise NotImplementedError


# -- simulation sweeps ----------------------------------------------------------

def build_traces(specs, result: PassResult, sample: bool) -> None:
    """Empty the trace cache, then build each benchmark's trace once as a
    timed operation; the cells then hit the cache.  The builds run in
    name order whatever the seed, so the seed does not move peak RSS."""
    from repro.workloads import build_trace, clear_trace_cache

    clear_trace_cache()
    for benchmark, instructions in sorted({(spec.benchmark, spec.instructions)
                                           for spec in specs}):
        result.wall += timed_op(result, f"build {benchmark}", build_trace,
                                benchmark, instructions, sample=sample)[1]


def timed_op(result: PassResult, op: str, fn, *args, sample: bool):
    """``fn(*args)`` timed as operation *op* of *result*.  With *sample*
    (untraced passes), garbage is collected first, so that what the
    previous operation left does not add to this one's peak RSS, and
    the host loop runs just before and after it.  Returns the value and
    the seconds taken."""
    loops = []
    if sample:
        sampling = time.perf_counter()
        gc.collect()
        loops = env.host_loop_times()
    began = time.perf_counter()
    value = fn(*args)
    took = time.perf_counter() - began
    if sample:
        result.op_loops[op] = loops + env.host_loop_times()
        result.sampling_s += time.perf_counter() - sampling - took
    result.op_times[op] = took
    return value, took


def _executor(result: PassResult, tracer: Optional[Tracer]):
    """Sweep executor timing each cell's ``execute_spec`` as an
    operation; traced, the spans of each cell share the cell's name as
    their run id."""
    from repro.harness import execute_spec

    def execute(spec):
        if tracer is not None:
            tracer.run_id = spec.describe()
        return timed_op(result, spec.describe(), execute_spec, spec,
                        sample=tracer is None)[0]

    return execute


def run_sweep(specs, store, result: PassResult, tracer: Optional[Tracer]):
    """Resolve *specs* through ``repro.harness.sweep`` in this process and
    add its wall time, cell times and failed cells to *result*."""
    from repro.harness import SweepProgress, sweep

    progress = SweepProgress()
    run = sweep
    if tracer is not None:
        run = tracer.wrap("harness.sweep", sweep)
    sampled = result.sampling_s
    start = time.perf_counter()
    report = run(specs, jobs=1, store=store, progress=progress,
                 executor=_executor(result, tracer))
    result.sweep_wall = time.perf_counter() - start
    result.wall += result.sweep_wall - (result.sampling_s - sampled)
    result.attempted += len(specs)
    result.progress = progress
    for failure in report.failures:
        result.fail(failure.spec.describe(), failure.error)
    return report


class DetailedSweep(Workload):
    name = "detailed-sweep"
    work_unit = "committed instructions"
    figures = {"detailed_instr_per_s": "instr/s", "warm_cells_per_s": "cells/s"}

    def plan(self, rng):
        from repro.harness import CellSpec

        specs = [CellSpec(benchmark, RF_SIZE, scheme, DETAILED_INSTRUCTIONS)
                 for benchmark in DETAILED_BENCHMARKS for scheme in SCHEMES]
        rng.shuffle(specs)
        return specs

    def prepare(self):
        """Build every trace before timing, in name order: the passes
        time the simulation, not the trace build, and the seed's cell
        order does not move peak RSS."""
        from repro.workloads import build_trace

        for benchmark in sorted(DETAILED_BENCHMARKS):
            build_trace(benchmark, DETAILED_INSTRUCTIONS)

    def execute(self, specs, rundir, tracer=None):
        from repro.harness import ResultStore

        result = PassResult()
        store = ResultStore(root=rundir.sub(f"store-{time.monotonic_ns()}"))
        report = run_sweep(specs, store, result, tracer)
        expected = self.reference["detailed"]["cells"]
        for spec in specs:
            cell = report.results.get(spec)
            if cell is None:
                continue  # recorded from report.failures
            key = cell_key(spec.benchmark, spec.scheme)
            result.work += cell.stats.committed
            result.digests[key] = stats_digest(cell)
            want = expected[key]
            got = {"cycles": cell.stats.cycles,
                   "committed": cell.stats.committed}
            if got != {"cycles": want["cycles"],
                       "committed": want["committed"]}:
                result.fail(key, f"simulated {got}, reference {want}")
        self._warm(specs, store, result)
        result.figures["detailed_instr_per_s"] = result.work / result.wall
        return result

    def _warm(self, specs, store, result: PassResult) -> None:
        """Re-resolve the sweep from its now-warm store until the reads
        add up to :data:`WARM_SECONDS`; every read is checked."""
        from repro.harness import SweepProgress, sweep

        elapsed = 0.0
        hits = 0
        while elapsed < WARM_SECONDS:
            start = time.perf_counter()
            report = sweep(specs, jobs=1, store=store,
                           progress=SweepProgress())
            elapsed += time.perf_counter() - start
            hits += report.hits
            for spec in specs:
                result.attempted += 1
                key = cell_key(spec.benchmark, spec.scheme)
                cell = report.results.get(spec)
                if cell is None or stats_digest(cell) != result.digests.get(key):
                    result.fail(f"warm {key}", "store read differs from cold run")
        result.figures["warm_cells_per_s"] = hits / elapsed


class Tiered(Workload):
    name = "tiered-50k"
    work_unit = "represented instructions"
    figures = {"tiered_instr_per_s": "instr/s", "tiered_ipc_err_pct": "%"}

    def plan(self, rng):
        from repro.harness import CellSpec, TierPolicy

        cells = [(benchmark, scheme) for benchmark in TIERED_BENCHMARKS
                 for scheme in SCHEMES]
        rng.shuffle(cells)
        return [CellSpec(benchmark, RF_SIZE, scheme, TIERED_INSTRUCTIONS,
                         tier=TierPolicy(mode="tiered",
                                         seed=rng.randrange(1 << 16)))
                for benchmark, scheme in cells]

    def execute(self, specs, rundir, tracer=None):
        result = PassResult()
        build_traces(specs, result, sample=tracer is None)
        report = run_sweep(specs, None, result, tracer)
        reference = self.reference["tiered"]["detailed_ipc"]
        errors = []
        for spec in specs:
            cell = report.results.get(spec)
            if cell is None:
                continue  # recorded from report.failures
            key = cell_key(spec.benchmark, spec.scheme)
            info = cell.tier_info
            result.tier_infos.append(info)
            result.digests[f"{key}@k{spec.tier.seed}"] = stats_digest(cell)
            result.work += info["represented_instructions"]
            err = abs(cell.ipc - reference[key]) / reference[key] * 100.0
            errors.append(err)
            if (cell.stats.committed != TIERED_INSTRUCTIONS
                    or info["represented_instructions"] != TIERED_INSTRUCTIONS):
                result.fail(key, f"represents {info['represented_instructions']}"
                                 f" instructions, not {TIERED_INSTRUCTIONS}")
            elif err > TIERED_MAX_ERR_PCT:
                result.fail(key, f"IPC {cell.ipc:.4f} is {err:.1f}% off the "
                                 f"detailed reference {reference[key]:.4f}")
        result.figures["tiered_instr_per_s"] = result.work / result.wall
        if errors:
            result.figures["tiered_ipc_err_pct"] = statistics.mean(errors)
        return result


# -- lint ---------------------------------------------------------------------------

def lint_one(name: str) -> Dict:
    """What ``repro lint NAME`` computes, as finding counts."""
    import repro.staticcheck as staticcheck
    from repro.workloads import builder_for

    program = builder_for(name)(4)
    report = staticcheck.lint_program(program, warn_unused_ignore=True)
    static = staticcheck.analyze_regions(program)
    counts = static.counts()
    active: Dict[str, int] = {}
    suppressed: Dict[str, int] = {}
    for finding in report.findings:
        bucket = suppressed if finding.suppressed else active
        bucket[finding.rule] = bucket.get(finding.rule, 0) + 1
    return {"active": active, "suppressed": suppressed,
            "atomic": counts["atomic"], "closed": counts["closed"]}


class Lint(Workload):
    name = "lint-mix"
    work_unit = "refs"
    figures = {"lint_refs_per_s": "refs/s"}

    def plan(self, rng):
        names = list(LINT_REFS)
        rng.shuffle(names)
        return names

    def execute(self, names, rundir, tracer=None):
        expected = self.reference["lint"]
        result = PassResult(work=len(names))
        for name in names:
            result.attempted += 1
            if tracer is not None:
                tracer.run_id = name
            try:
                payload, took = timed_op(result, name, lint_one, name,
                                         sample=tracer is None)
            except Exception as exc:  # report, keep linting
                result.fail(name, f"{type(exc).__name__}: {exc}")
                continue
            result.wall += took
            result.digests[name] = hashlib.sha256(json.dumps(
                payload, sort_keys=True).encode()).hexdigest()[:16]
            if payload != expected.get(name):
                result.fail(name, f"lint counts {payload}, reference "
                                  f"{expected.get(name)}")
        result.figures["lint_refs_per_s"] = len(names) / result.wall
        return result


WORKLOADS = {workload.name: workload
             for workload in (DetailedSweep, Tiered, Lint)}

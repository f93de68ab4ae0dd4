"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload detailed-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats the workload's pass for ``--seconds`` seconds and
reports the end-to-end metrics; ``--trace 1`` runs one pass with every
layer boundary traced, between two untraced passes of the same inputs,
and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--workload all`` runs every workload in turn (timed) and prints each
one's table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env, suite  # noqa: E402
from perfbench.tracer import Tracer, install_layers  # noqa: E402

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_REPEATS = 7

END_TO_END = {
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Figures of every timed run, next to the workload's own.
FIGURE_UNITS = {"raw_work_per_s": "1/s", "raw_setup_s": "s"}

STAGES = ("fetch", "rename", "issue", "execute", "precommit", "commit")

PER_LAYER = {
    "workloads.build.s": "s",
    "workloads.build.calls": "count",
    "frontend.emulate.s": "s",
    "frontend.emulated_instr": "count",
    "frontend.useful_ratio": "ratio",
    "workloads.simpoint.pick.s": "s",
    "pipeline.warmup.fast_forward.s": "s",
    "pipeline.warmup.instr": "count",
    "tiered.stitch.s": "s",
    "tiered.detailed_share": "ratio",
    "tiered.ipc_err_pct": "%",
    "pipeline.core_init.s": "s",
    "pipeline.run.s": "s",
    "pipeline.sim_cycles": "count",
    "pipeline.steps": "count",
    "pipeline.skip_ratio": "ratio",
    "pipeline.host_us_per_cycle": "us",
    **{f"pipeline.stages.{stage}.s": "s" for stage in STAGES},
    "rename.schemes.hooks.s": "s",
    "harness.sweep.s": "s",
    "harness.cell.p50_s": "s",
    "harness.cell.max_s": "s",
    "harness.idle_s": "s",
    "harness.retries": "count",
    "harness.failures": "count",
    "harness.store.put.s": "s",
    "harness.store.get.s": "s",
    "harness.serialize.decode.s": "s",
    "staticcheck.cfg.s": "s",
    "staticcheck.dataflow.s": "s",
    "staticcheck.regions.s": "s",
    "staticcheck.memdep.s": "s",
    "staticcheck.memdep.undefined_loads.s": "s",
    "staticcheck.memdep.dead_stores.s": "s",
    "staticcheck.memdep.region_may_alias.s": "s",
    "staticcheck.lints.s": "s",
    "trace.overhead_pct": "%",
}

#: Per-layer metrics that are the self time of the span of the same name.
_SELF_TIMED = (
    "workloads.build", "frontend.emulate", "workloads.simpoint.pick",
    "pipeline.warmup.fast_forward", "tiered.stitch", "pipeline.core_init",
    "pipeline.run", "harness.sweep", "harness.store.put", "harness.store.get",
    "harness.serialize.decode", "staticcheck.cfg", "staticcheck.dataflow",
    "staticcheck.regions", "staticcheck.memdep",
    "staticcheck.memdep.undefined_loads", "staticcheck.memdep.dead_stores",
    "staticcheck.memdep.region_may_alias", "staticcheck.lints",
) + tuple(f"pipeline.stages.{stage}" for stage in STAGES)


def timed_run(workload, seed: int, seconds: float, rundir):
    """Repeat the seed's pass until the next repetition would end past
    *seconds* (at least one pass), collecting garbage between passes."""
    plan = workload.plan(random.Random(seed))
    workload.prepare()
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(workload.execute(plan, rundir))
        gc.collect()
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return passes


def throughput(passes, scaled: bool = True) -> float:
    """Work per second at each operation's best time over the passes.

    The host is shared: bursts of contention slow everything for seconds
    at a time.  Every operation (trace build, cell, ref) is timed in each
    repetition of the same pass and only its fastest time counts, so a
    burst changes the result only if it hits that operation in every
    repetition.  *scaled* times are at the reference host speed
    (:func:`perfbench.env.at_reference_speed`), which removes the slower
    drift of the host's speed as well.
    """
    def cost(result, op):
        if op not in result.op_times:
            return float("inf")
        return result.op_cost(op) if scaled else result.op_times[op]

    best = sum(min(cost(p, op) for p in passes) for op in passes[0].op_times)
    return passes[0].work / best


def layer_metrics(tracer, traced, untraced_s: float):
    """Per-layer metrics of one traced pass (zero where a layer did no
    work on this workload); *untraced_s* is what its operations take
    untraced."""
    metrics = {f"{name}.s": tracer.self_s(name) for name in _SELF_TIMED}
    cycles = tracer.counts.get("pipeline.sim_cycles", 0)
    steps = tracer.calls("rename.schemes.tick")
    emulated = tracer.counts.get("frontend.emulated_instr", 0)
    represented = sum(i["represented_instructions"] for i in traced.tier_infos)
    detailed = sum(i["detailed_instructions"] for i in traced.tier_infos)
    metrics.update({
        "workloads.build.calls": tracer.calls("workloads.build"),
        "frontend.emulated_instr": emulated,
        "frontend.useful_ratio": (tracer.counts.get("frontend.kept_instr", 0)
                                  / emulated if emulated else 0.0),
        "pipeline.warmup.instr": tracer.counts.get("pipeline.warmup.instr", 0),
        "tiered.detailed_share": detailed / represented if represented else 0.0,
        "tiered.ipc_err_pct": traced.figures.get("tiered_ipc_err_pct", 0.0),
        "pipeline.sim_cycles": cycles,
        "pipeline.steps": steps,
        "pipeline.skip_ratio": 1 - steps / cycles if cycles else 0.0,
        "pipeline.host_us_per_cycle": (tracer.inclusive_s("pipeline.run")
                                       / cycles * 1e6 if cycles else 0.0),
        "rename.schemes.hooks.s": tracer.self_s("rename.schemes.tick",
                                                "rename.schemes.hooks"),
        "trace.overhead_pct": (sum(traced.op_times.values()) / untraced_s
                               - 1) * 100,
    })
    progress = traced.progress
    cell_times = [t for _name, t in progress.cell_times] if progress else []
    metrics.update({
        "harness.cell.p50_s": statistics.median(cell_times) if cell_times else 0.0,
        "harness.cell.max_s": max(cell_times, default=0.0),
        "harness.idle_s": (traced.sweep_wall - sum(cell_times)
                           if cell_times else 0.0),
        "harness.retries": progress.retries if progress else 0,
        "harness.failures": progress.failed if progress else 0,
    })
    return metrics


def traced_run(workload, seed: int, rundir):
    """The seed's pass traced, between two untraced passes of the same
    inputs.  The overhead is measured against each operation's better
    untraced time."""
    plan = workload.plan(random.Random(seed))
    workload.prepare()
    before = workload.execute(plan, rundir)
    tracer = Tracer()
    install_layers(tracer)
    try:
        traced = workload.execute(plan, rundir, tracer)
    finally:
        tracer.uninstall()
    after = workload.execute(plan, rundir)
    tracer.write(env.OUT / f"spans-{workload.name}.json")
    for op, digest in before.digests.items():
        if traced.digests.get(op) != digest:
            traced.fail(op, "traced run simulated different statistics")
    untraced_s = sum(min(before.op_times[op], after.op_times[op])
                     for op in traced.op_times)
    return [before, traced, after], layer_metrics(tracer, traced, untraced_s)


def measure(name: str, seed: int, seconds: float, trace: bool):
    workload = suite.WORKLOADS[name](suite.load_reference())
    with env.RunDir(name) as rundir:
        if trace:
            passes, values = traced_run(workload, seed, rundir)
            units = PER_LAYER
        else:
            passes = timed_run(workload, seed, seconds, rundir)
            setups = env.setup_seconds(SETUP_REPEATS)
            values = {
                "work_per_s": throughput(passes),
                "setup_s": statistics.median(scaled for _raw, scaled in setups),
                "peak_rss_mb": env.peak_rss_mb(),
            }
            units = END_TO_END
    failures = [f for p in passes for f in p.failures]
    figures = {}
    for figure in workload.figures:
        samples = [p.figures[figure] for p in passes if figure in p.figures]
        if samples:
            figures[figure] = statistics.median(samples)
    if not trace:
        figures["raw_work_per_s"] = throughput(passes, scaled=False)
        figures["raw_setup_s"] = statistics.median(raw for raw, _ in setups)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "work_unit": workload.work_unit,
        "attempted": sum(p.attempted for p in passes),
        "failures": failures,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
        "figures": {key: {"value": value, "unit": FIGURE_UNITS.get(
                              key, workload.figures.get(key))}
                    for key, value in figures.items()},
        "digests": passes[-1].digests,
    }


def render(result) -> str:
    lines = [f"perfbench {result['workload']} seed={result['seed']} "
             f"trace={int(result['trace'])} passes={result['passes']} "
             f"work unit: {result['work_unit']}",
             f"host {json.dumps(result['host'], sort_keys=True)}"]
    for key, metric in {**result["metrics"], **result["figures"]}.items():
        lines.append(f"  {key:40s} {metric['value']:>14.6g} {metric['unit']}")
    for op, digest in sorted(result["digests"].items()):
        lines.append(f"  digest {op:38s} {digest}")
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*suite.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.bootstrap()
    except env.MissingSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    host = env.host_fingerprint()
    names = list(suite.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        result["host"] = host
        (env.OUT / f"result-{name}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True))
        print(render(result), flush=True)
        results[name] = {
            "correct": not result["failures"],
            "attempted": result["attempted"],
            "failed": len(result["failures"]),
            "metrics": result["metrics"],
        }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

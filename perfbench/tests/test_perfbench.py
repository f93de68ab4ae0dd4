"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload is exercised on a shrunken pass (a subset of its cells or
refs) so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import env, run, suite
from perfbench.tracer import Tracer, install_layers


@pytest.fixture(scope="module", autouse=True)
def _bootstrapped():
    env.bootstrap()


@pytest.fixture(scope="module")
def reference():
    return suite.load_reference()


@pytest.fixture
def rundir():
    with env.RunDir("test") as directory:
        yield directory


def _only(plan, benchmark):
    return [spec for spec in plan if spec.benchmark == benchmark]


def test_names_match_benchmark_json():
    bench = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(suite.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert bench["paths"] == ["perfbench"]

    layers = json.loads((env.ROOT / "perfbench" / "layers.json").read_text())
    mapped = {name for layer in layers["layers"] for name in layer["metrics"]}
    assert set(run.PER_LAYER) - mapped == {"trace.overhead_pct"}
    assert mapped <= set(run.PER_LAYER)
    assert set(layers["work_per_s"]) == set(suite.WORKLOADS)
    for layer in layers["layers"]:
        named = {m["workload"] for m in layer["moves"]} | set(layer["barely_moves"])
        assert named <= set(suite.WORKLOADS), layer["layer"]


def test_detailed_shrunken_pass_meets_its_checks(reference, rundir):
    workload = suite.DetailedSweep(reference)
    plan = _only(workload.plan(random.Random(1)), "531.deepsjeng_r")
    result = workload.execute(plan, rundir)
    assert result.failures == []
    assert set(result.digests) == {"531.deepsjeng_r/baseline",
                                   "531.deepsjeng_r/atr"}
    assert result.work == 2 * suite.DETAILED_INSTRUCTIONS
    assert len(result.op_times) == 2
    assert result.figures["warm_cells_per_s"] > 0


def test_detailed_check_catches_a_changed_simulation(reference, rundir):
    tampered = json.loads(json.dumps(reference))
    tampered["detailed"]["cells"]["531.deepsjeng_r/baseline"]["cycles"] += 1
    workload = suite.DetailedSweep(tampered)
    plan = [s for s in _only(workload.plan(random.Random(1)), "531.deepsjeng_r")
            if s.scheme == "baseline"]
    result = workload.execute(plan, rundir)
    assert len(result.failures) == 1
    assert result.failures[0].startswith("531.deepsjeng_r/baseline")


def test_tiered_shrunken_pass_meets_its_checks(reference, rundir):
    workload = suite.Tiered(reference)
    plan = _only(workload.plan(random.Random(1)), "503.bwaves_r")
    result = workload.execute(plan, rundir)
    assert result.failures == []
    assert result.work == len(plan) * suite.TIERED_INSTRUCTIONS
    assert set(result.op_times) == {"build 503.bwaves_r",
                                    *(spec.describe() for spec in plan)}
    assert 0 < result.figures["tiered_ipc_err_pct"] < suite.TIERED_MAX_ERR_PCT


def test_lint_shrunken_pass_meets_its_checks(reference, rundir):
    workload = suite.Lint(reference)
    names = ["505.mcf_r", "505.mcf_r/ref2", "531.deepsjeng_r"]
    result = workload.execute(names, rundir)
    assert result.failures == []
    assert set(result.digests) == set(names)
    assert len(reference["lint"]) == 31
    assert set(suite.LINT_REFS) <= set(reference["lint"])


def test_seed_changes_order_and_windows_but_not_detailed_digests(
        reference, rundir):
    detailed = suite.DetailedSweep(reference)
    first = detailed.plan(random.Random(1))
    second = detailed.plan(random.Random(2))
    assert first != second and set(first) == set(second)

    tiered = suite.Tiered(reference)
    plan_a = tiered.plan(random.Random(1))
    plan_b = tiered.plan(random.Random(2))
    assert ([(s.benchmark, s.tier.seed) for s in plan_a]
            != [(s.benchmark, s.tier.seed) for s in plan_b])
    from repro.workloads import build_trace
    from repro.workloads.simpoint import pick_simpoints
    trace = build_trace("505.mcf_r", suite.TIERED_INSTRUCTIONS)
    windows = [[sp.start for sp in pick_simpoints(
                    trace, seed=_only(plan, "505.mcf_r")[0].tier.seed)]
               for plan in (plan_a, plan_b)]
    assert windows[0] != windows[1]

    digests = [detailed.execute(_only(plan, "531.deepsjeng_r"), rundir).digests
               for plan in (first, second)]
    assert digests[0] == digests[1]


def test_traced_detailed_cells_match_untraced(reference, rundir):
    workload = suite.DetailedSweep(reference)
    plan = _only(workload.plan(random.Random(3)), "531.deepsjeng_r")
    untraced = workload.execute(plan, rundir)
    from repro.workloads import clear_trace_cache
    clear_trace_cache()  # so the traced pass builds its traces
    tracer = Tracer()
    install_layers(tracer)
    try:
        traced = workload.execute(plan, rundir, tracer)
    finally:
        tracer.uninstall()
    assert traced.digests == untraced.digests
    assert traced.failures == []

    metrics = run.layer_metrics(tracer, traced,
                                sum(untraced.op_times.values()))
    assert set(metrics) == set(run.PER_LAYER)
    for name in ("pipeline.stages.rename.s", "pipeline.run.s",
                 "rename.schemes.hooks.s", "workloads.build.s",
                 "frontend.emulate.s", "harness.store.get.s"):
        assert metrics[name] > 0, name
    assert metrics["pipeline.steps"] <= metrics["pipeline.sim_cycles"]
    assert 0 < metrics["frontend.useful_ratio"] <= 1
    assert metrics["staticcheck.memdep.s"] == 0
    ids = {span[0] for span in tracer.spans}
    assert all(span[4] is None or span[4] in ids for span in tracer.spans)


def test_tracer_self_time_nesting_and_uninstall():
    class Box:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.03)

    original = Box.outer
    tracer = Tracer()
    tracer.patch(Box, "outer", "outer")
    tracer.patch(Box, "inner", "inner")
    Box().outer()
    tracer.uninstall()

    assert Box.outer is original
    assert tracer.self_s("inner") >= 0.03
    assert 0.02 <= tracer.self_s("outer") < tracer.inclusive_s("outer")
    assert tracer.inclusive_s("outer") == pytest.approx(
        tracer.self_s("outer") + tracer.inclusive_s("inner"))
    outer, inner = sorted(tracer.spans, key=lambda span: span[2])
    assert inner[4] == outer[0] and outer[4] is None


def test_refuses_to_run_outside_a_full_checkout(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lint-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert not (tmp_path / ".perfbench_out").exists()


def test_reference_helper_refuses_to_overwrite(capsys):
    from perfbench import reference

    assert reference.main([]) == 1
    assert "--force" in capsys.readouterr().err


def test_host_fingerprint_and_setup_time():
    host = env.host_fingerprint()
    assert set(host) == {"cpu", "nproc", "python", "numpy", "git_commit",
                         "code_fingerprint"}
    ((seconds, scaled),) = env.setup_seconds(1)
    assert 0 < seconds < 30 and 0 < scaled < 30


def test_rescaling_divides_by_the_best_nearby_loop_time():
    times = env.host_loop_times()
    assert len(times) == env.LOOP_SAMPLES and all(t > 0 for t in times)
    reference = env.REFERENCE_LOOP_S
    assert env.at_reference_speed(1.0, [3 * reference, 2 * reference]) == 0.5


def test_work_per_s_uses_each_operations_best_rescaled_time():
    reference = env.REFERENCE_LOOP_S
    passes = []
    for a, b, loop in ((2.0, 1.0, reference), (1.0, 2.0, 2 * reference)):
        result = suite.PassResult(work=10, op_times={"a": a, "b": b},
                                  op_loops={"a": [loop], "b": [loop]})
        passes.append(result)
    assert run.throughput(passes, scaled=False) == 10 / (1.0 + 1.0)
    assert run.throughput(passes) == 10 / (0.5 + 1.0)

"""Sweep layer + CLI: dedup, store integration, parallel determinism."""

import os
from collections import Counter

import pytest

from repro.cli import main
from repro.experiments import fig06, fig10
from repro.experiments.runner import clear_result_cache
from repro.harness import (
    CellFailure,
    CellSpec,
    RegionSpec,
    ResultStore,
    SweepError,
    encode_result,
    execute_spec,
    sweep,
)
from repro.validate import ChaosSpec, execute_chaos_spec
from repro.workloads import Workload, build_trace, clear_trace_cache

INT2 = ["505.mcf_r", "531.deepsjeng_r"]
FP2 = ["503.bwaves_r", "508.namd_r"]


class TestSweep:
    def test_deduplicates_specs(self):
        calls = []

        def executor(spec):
            calls.append(spec)
            return spec.benchmark

        spec = CellSpec("a", 64, "atr", 100)
        report = sweep([spec, spec, spec], jobs=1, store=None, executor=executor)
        assert len(calls) == 1
        assert report.results[spec] == "a"
        assert report.progress.total == 1

    def test_warm_cells_skip_execution(self, tmp_path):
        store = ResultStore(root=tmp_path)
        specs = [CellSpec(name, 64, "atr", 100) for name in ("a", "b")]
        executed = []

        def executor(spec):
            executed.append(spec.benchmark)
            return {"benchmark": spec.benchmark}

        first = sweep(specs, jobs=1, store=store, executor=executor)
        assert sorted(executed) == ["a", "b"] and first.hits == 0

        executed.clear()
        second = sweep(specs, jobs=1, store=store, executor=executor)
        assert executed == []
        assert second.hits == 2
        assert second.results[specs[0]] == {"benchmark": "a"}

    def test_require_complete_raises_sweep_error(self):
        def executor(spec):
            raise RuntimeError("boom")

        report = sweep([CellSpec("a", 64, "atr", 100)], jobs=1, store=None,
                       executor=executor)
        with pytest.raises(SweepError, match="boom"):
            report.require_complete()


class TestDeterminism:
    def test_parallel_and_serial_figures_agree_exactly(self, tmp_path, monkeypatch):
        """The acceptance property: worker processes change wall time,
        never figure numbers — compared against fresh, separate stores."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        clear_result_cache()
        parallel = fig10.run(int_benchmarks=INT2, fp_benchmarks=FP2,
                             sizes=(64,), instructions=800, jobs=2)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        clear_result_cache()
        serial = fig10.run(int_benchmarks=INT2, fp_benchmarks=FP2,
                           sizes=(64,), instructions=800, jobs=1)

        assert parallel.speedups == serial.speedups  # bit-exact, not approx
        assert parallel.render() == serial.render()
        clear_result_cache()

    def test_region_figures_agree_exactly(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        clear_result_cache()
        parallel = fig06.run(int_benchmarks=INT2, fp_benchmarks=FP2,
                             instructions=800, jobs=2)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        clear_result_cache()
        serial = fig06.run(int_benchmarks=INT2, fp_benchmarks=FP2,
                           instructions=800, jobs=1)

        assert parallel.ratios == serial.ratios
        clear_result_cache()


def _execute_any(spec):
    if isinstance(spec, ChaosSpec):
        return execute_chaos_spec(spec)
    return execute_spec(spec)


class TestTraceReuse:
    """Forked workers inherit the traces the sweep process built, so each
    distinct (benchmark, instructions) trace is emulated once, never in
    a worker, whatever the spec type."""

    N = 700

    def specs(self):
        specs = []
        for benchmark in ("505.mcf_r", "503.bwaves_r"):
            specs += [CellSpec(benchmark, 64, "baseline", self.N),
                      CellSpec(benchmark, 64, "atr", self.N),
                      RegionSpec(benchmark, self.N),
                      ChaosSpec(benchmark, "atr", 28, self.N, seed=1)]
        return specs

    def test_parallel_sweep_builds_each_trace_once_in_parent(
            self, tmp_path, monkeypatch):
        log = tmp_path / "builds.log"
        build = Workload.build

        def logged_build(self, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {self.name}\n")
            return build(self, *args, **kwargs)

        def take_log():
            lines = [line.split() for line in log.read_text().splitlines()]
            log.unlink()
            return lines

        monkeypatch.setattr(Workload, "build", logged_build)
        specs = self.specs()
        try:
            # One cold build of each trace: the budget a sweep may spend.
            clear_trace_cache()
            for benchmark, n in sorted({(s.benchmark, s.instructions)
                                        for s in specs}):
                build_trace(benchmark, n)
            once = Counter(name for _pid, name in take_log())

            clear_trace_cache()
            serial = sweep(specs, jobs=1, store=None, executor=_execute_any)
            take_log()

            clear_trace_cache()
            parallel = sweep(specs, jobs=2, store=None, executor=_execute_any)
            builds = take_log()
        finally:
            clear_trace_cache()

        assert {pid for pid, _name in builds} == {str(os.getpid())}
        assert Counter(name for _pid, name in builds) == once
        assert not serial.failures and not parallel.failures
        for spec in specs:
            assert (encode_result(parallel[spec])
                    == encode_result(serial[spec])), spec.describe()


class TestCli:
    def test_figure_with_jobs(self, capsys):
        assert main(["figure", "fig06", "--quick", "-n", "800",
                     "--jobs", "2"]) == 0
        assert "atomic" in capsys.readouterr().out

    def test_figure_all_reports_failures(self, capsys, monkeypatch):
        import repro.experiments as experiments

        class _Ok:
            @staticmethod
            def run(jobs=None, instructions=None):
                class Result:
                    def render(self):
                        return "ok-figure"
                return Result()

        class _Failing:
            @staticmethod
            def run(jobs=None, instructions=None):
                raise SweepError([CellFailure(
                    CellSpec("x", 64, "atr", 100), "injected", 2)])

        monkeypatch.setattr(experiments, "ALL_FIGURES",
                            {"figok": _Ok, "figbad": _Failing})
        assert main(["figure", "all"]) == 1
        captured = capsys.readouterr()
        assert "ok-figure" in captured.out
        assert "FAILED figures: figbad" in captured.err

    def test_figure_all_success_exit_zero(self, capsys, monkeypatch):
        import repro.experiments as experiments

        class _Ok:
            @staticmethod
            def run(jobs=None, instructions=None):
                class Result:
                    def render(self):
                        return "ok-figure"
                return Result()

        monkeypatch.setattr(experiments, "ALL_FIGURES", {"figok": _Ok})
        assert main(["figure", "all"]) == 0

    def test_sweep_command(self, capsys):
        assert main(["sweep", "-b", "mcf", "-r", "64", "-s", "baseline,atr",
                     "-n", "800", "-j", "2"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r" in out and "baseline" in out

    def test_cache_info_and_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "-b", "mcf", "-r", "64", "-s", "baseline",
                     "-n", "800", "-j", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        assert "entries:          1" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "entries:          0" in capsys.readouterr().out

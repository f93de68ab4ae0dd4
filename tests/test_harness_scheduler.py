"""Scheduler: sharding, failure isolation, per-cell timeout, one re-run.

Custom executors run in forked workers, so closures over tmp_path work;
marker files let an executor behave differently on its second attempt.
"""

import os
import time

import pytest

from repro.harness import CellSpec, run_specs
from repro.harness.scheduler import _worker

SPECS = [CellSpec(name, 64, "atr", 100) for name in ("a", "b", "c")]


def _echo(spec):
    return {"name": spec.benchmark}


class TestSharding:
    def test_parallel_runs_every_spec(self):
        results, failures = run_specs(SPECS, jobs=2, executor=_echo)
        assert not failures
        assert {spec.benchmark for spec, _r in results} == {"a", "b", "c"}
        assert all(result == {"name": spec.benchmark} for spec, result in results)

    def test_serial_runs_in_process(self):
        pids = []

        def executor(spec):
            pids.append(os.getpid())
            return spec.benchmark

        results, failures = run_specs(SPECS, jobs=1, executor=executor)
        assert not failures and len(results) == 3
        assert set(pids) == {os.getpid()}

    def test_parallel_runs_out_of_process(self):
        def executor(spec):
            return os.getpid()

        results, failures = run_specs(SPECS, jobs=2, executor=executor)
        assert not failures
        assert os.getpid() not in {result for _spec, result in results}


class TestFailureIsolation:
    def test_one_bad_cell_does_not_sink_the_sweep(self):
        def executor(spec):
            if spec.benchmark == "b":
                raise ValueError("injected")
            return spec.benchmark

        results, failures = run_specs(SPECS, jobs=2, executor=executor)
        assert {spec.benchmark for spec, _r in results} == {"a", "c"}
        assert len(failures) == 1
        assert failures[0].spec.benchmark == "b"
        assert "injected" in failures[0].error

    def test_worker_death_is_an_error_not_a_hang(self):
        def executor(spec):
            os._exit(3)

        results, failures = run_specs(SPECS[:1], jobs=2, executor=executor)
        assert not results
        assert len(failures) == 1
        assert "worker died" in failures[0].error

    def test_exception_retried_then_succeeds(self, tmp_path):
        def executor(spec):
            marker = tmp_path / spec.benchmark
            if not marker.exists():
                marker.write_text("tried")
                raise RuntimeError("transient")
            return "recovered"

        results, failures = run_specs(SPECS[:1], jobs=2, executor=executor)
        assert not failures
        assert results[0][1] == "recovered"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_names_the_first_error_and_the_retrys(self, tmp_path, jobs):
        def executor(spec):
            marker = tmp_path / spec.benchmark
            if not marker.exists():
                marker.write_text("tried")
                raise RuntimeError("symptom")
            raise ValueError("cause")

        results, failures = run_specs(SPECS[:1], jobs=jobs, executor=executor)
        assert not results
        assert failures[0].error == ("RuntimeError: symptom\n"
                                     "retry: ValueError: cause")

    def test_serial_retry_matches_parallel_semantics(self, tmp_path):
        def executor(spec):
            marker = tmp_path / spec.benchmark
            if not marker.exists():
                marker.write_text("tried")
                raise RuntimeError("transient")
            return "recovered"

        results, failures = run_specs(SPECS[:1], jobs=1, executor=executor)
        assert not failures
        assert results[0][1] == "recovered"


class TestInterruptPropagation:
    def test_keyboard_interrupt_escapes_serial_mode(self):
        def executor(spec):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_specs(SPECS[:1], jobs=1, executor=executor)

    def test_worker_does_not_swallow_keyboard_interrupt(self):
        """The worker body isolates cell *errors*; Ctrl-C must escape it
        instead of being reported as a retryable failure."""
        class DummyConn:
            def __init__(self):
                self.sent = []

            def send(self, item):
                self.sent.append(item)

            def close(self):
                pass

        def executor(spec):
            raise KeyboardInterrupt

        conn = DummyConn()
        with pytest.raises(KeyboardInterrupt):
            _worker(executor, SPECS[0], conn)
        assert conn.sent == []

    def test_worker_still_isolates_ordinary_exceptions(self):
        class DummyConn:
            def __init__(self):
                self.sent = []

            def send(self, item):
                self.sent.append(item)

            def close(self):
                pass

        def executor(spec):
            raise ValueError("cell bug")

        conn = DummyConn()
        _worker(executor, SPECS[0], conn)
        assert conn.sent == [("error", "ValueError: cell bug")]


class TestRetryBackoffAndDiagnosis:
    """A failed cell runs once more, straight away, under the diagnostic
    executor; nothing spaces the two attempts."""

    def test_pick_executor_switches_on_retry(self):
        """The first attempt runs the executor and the re-run the
        diagnostic one; without a diagnostic executor, the executor runs
        again."""
        calls = []

        def plain(spec):
            calls.append("plain")
            raise RuntimeError("always fails")

        def diagnose(spec):
            calls.append("diagnose")
            raise RuntimeError("always fails")

        run_specs(SPECS[:1], jobs=1, executor=plain,
                  diagnostic_executor=diagnose)
        assert calls == ["plain", "diagnose"]
        calls.clear()
        _results, failures = run_specs(SPECS[:1], jobs=1, executor=plain)
        assert calls == ["plain", "plain"]
        assert failures[0].attempts == 2

    def test_failed_cell_reruns_under_diagnostic_executor(self):
        def executor(spec):
            raise RuntimeError("always fails")

        def diagnose(spec):
            return "diagnosed"

        results, failures = run_specs(
            SPECS[:1], jobs=1, executor=executor, diagnostic_executor=diagnose)
        assert not failures
        assert results[0][1] == "diagnosed"

    def test_parallel_diagnostic_retry(self, tmp_path):
        def executor(spec):
            raise RuntimeError("always fails")

        def diagnose(spec):
            return "diagnosed"

        results, failures = run_specs(
            SPECS[:1], jobs=2, executor=executor, diagnostic_executor=diagnose)
        assert not failures
        assert results[0][1] == "diagnosed"


class TestTimeout:
    def test_hanging_cell_times_out_then_retry_succeeds(self, tmp_path):
        def executor(spec):
            marker = tmp_path / spec.benchmark
            if not marker.exists():
                marker.write_text("hung")
                time.sleep(60)
            return "after-retry"

        started = time.monotonic()
        results, failures = run_specs(SPECS[:1], jobs=2, timeout=1.0,
                                      executor=executor)
        assert time.monotonic() - started < 30  # terminated, not joined
        assert not failures
        assert results[0][1] == "after-retry"

    def test_persistent_hang_exhausts_retries(self):
        def executor(spec):
            time.sleep(60)

        results, failures = run_specs(SPECS[:1], jobs=2, timeout=0.5,
                                      executor=executor)
        assert not results
        assert len(failures) == 1
        assert failures[0].attempts == 2
        assert "timeout" in failures[0].error

    @pytest.mark.parametrize("value", ["0", "-1", "abc", "nan"])
    def test_env_timeout_must_be_positive(self, monkeypatch, value):
        """A deadline <= 0 used to fail every cell ("timeout after 0s");
        text raised a bare float() error."""
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", value)
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            run_specs(SPECS, jobs=2, executor=_echo)

    @pytest.mark.parametrize("timeout", [0, -1.5, "abc"])
    def test_timeout_argument_must_be_positive(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            run_specs(SPECS, jobs=2, timeout=timeout, executor=_echo)

"""Sweep scheduler: shard specs over worker processes, isolate failures.

Each cold spec runs in its own forked worker with a per-cell deadline;
a cell that fails or hangs (its worker is terminated) runs once more
under the diagnostic executor, then is reported as a failure without
sinking the sweep.  The scheduler builds
each spec's trace before forking its worker, so workers inherit traces
copy-on-write and every distinct trace is emulated once per sweep
process, not once per cell.  Results travel back through the same JSON
encoding the persistent store uses, so parallel and serial execution
produce byte-identical result objects.

With ``jobs=1`` — or on platforms without the ``fork`` start method —
the scheduler degrades to plain in-process execution (no per-cell
timeout there: you cannot preempt your own process).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Tuple

from ..workloads import build_trace
from .jobs import execute_spec, execute_spec_diagnose
from .progress import SweepProgress
from .serialize import decode_result, encode_result
from .spec import Spec

TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"
#: Seconds between scheduler polls of the worker pipes.
_POLL_INTERVAL = 0.05


def _positive_seconds(value, name: str) -> float:
    """*value* as a number of seconds > 0; a ValueError naming *name*
    otherwise (a zero or negative deadline fails every cell)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = float("nan")
    if not seconds > 0:
        raise ValueError(f"{name} must be a number > 0, got {value!r}")
    return seconds


def default_timeout() -> float:
    """The per-cell deadline: ``$REPRO_CELL_TIMEOUT`` seconds, default 600."""
    return _positive_seconds(os.environ.get(TIMEOUT_ENV, "600"), TIMEOUT_ENV)


def resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _fork_context():
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except (ValueError, AttributeError):  # pragma: no cover - exotic platforms
        pass
    return None


@dataclass
class CellFailure:
    """One spec that could not be computed, even when run again."""

    spec: Spec
    error: str
    attempts: int

    def describe(self) -> str:
        return (f"{self.spec.describe()}: {self.error} "
                f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})")


def _worker(executor: Callable, spec: Spec, conn) -> None:
    """Worker-process body: compute, encode, report over the pipe."""
    try:
        payload = encode_result(executor(spec))
        conn.send(("ok", payload))
    except Exception as exc:  # isolate cell failures, but only real ones:
        # KeyboardInterrupt/SystemExit must propagate so Ctrl-C kills the
        # worker instead of being swallowed as a retryable cell error.
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


def _build_inherited_trace(spec: Spec) -> None:
    """Build (or LRU-hit) *spec*'s trace in this process, so the worker
    forked next inherits it instead of emulating it again.

    A spec without ``benchmark`` and ``instructions``, or whose trace
    cannot be built, is left to the worker: an executor that needs the
    trace hits the same error there, where it fails only its own cell.
    """
    try:
        build_trace(spec.benchmark, spec.instructions)
    except Exception:
        pass


def _failure_error(first: Optional[str], last: str) -> str:
    """A failed cell's error: the first attempt's (the symptom), then the
    diagnostic retry's (often the cause) when it differs."""
    if first is None or first == last:
        return last
    return f"{first}\nretry: {last}"


def run_specs(
    specs: List[Spec],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    executor: Optional[Callable] = None,
    progress: Optional[SweepProgress] = None,
    diagnostic_executor: Optional[Callable] = None,
) -> Tuple[List[Tuple[Spec, object]], List[CellFailure]]:
    """Execute every spec; returns (completed ``(spec, result)``, failures).

    Order of the completed list follows completion time in parallel mode;
    callers index results by spec, never by position.  A cell that fails
    or times out runs once more, straight away, under
    *diagnostic_executor* (default: the standard executor with the
    invariant sanitizer enabled), so a deterministic crash comes back as
    a structured violation with a pipeline snapshot; a custom *executor*
    given without a diagnostic one runs again itself.
    """
    if executor is None:
        executor = execute_spec
        if diagnostic_executor is None:
            diagnostic_executor = execute_spec_diagnose
    #: The executor of each attempt, first run then re-run.
    attempts = (executor, diagnostic_executor or executor)
    progress = progress or SweepProgress()
    timeout = (default_timeout() if timeout is None
               else _positive_seconds(timeout, "timeout"))
    jobs = resolve_jobs(jobs)
    context = _fork_context()
    if jobs <= 1 or context is None:
        return _run_serial(specs, attempts, progress)
    return _run_parallel(specs, jobs, timeout, attempts, progress, context)


def _run_serial(specs, attempts, progress):
    results: List[Tuple[Spec, object]] = []
    failures: List[CellFailure] = []
    for spec in specs:
        first_error = None
        for attempt, run in enumerate(attempts, 1):
            started = time.monotonic()
            try:
                # Round-trip through the wire encoding so serial results are
                # indistinguishable from parallel (and store-decoded) ones.
                result = decode_result(encode_result(run(spec)))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if attempt < len(attempts):
                    first_error = error
                    progress.retry(spec, error)
                    continue
                progress.fail(spec, error)
                failures.append(CellFailure(
                    spec, _failure_error(first_error, error), attempt))
            else:
                results.append((spec, result))
                progress.done(spec, time.monotonic() - started)
            break
    return results, failures


def _run_parallel(specs, jobs, timeout, attempts, progress, context):
    results: List[Tuple[Spec, object]] = []
    failures: List[CellFailure] = []
    #: (spec, attempt)
    pending = deque((spec, 1) for spec in specs)
    #: receive-pipe -> (spec, attempt, process, started)
    running: Dict[object, tuple] = {}
    first_errors: Dict[Spec, str] = {}

    def settle(spec, attempt, error):
        if attempt < len(attempts):
            first_errors[spec] = error
            progress.retry(spec, error)
            pending.append((spec, attempt + 1))
        else:
            progress.fail(spec, error)
            failures.append(CellFailure(
                spec, _failure_error(first_errors.get(spec), error), attempt))

    try:
        while pending or running:
            while pending and len(running) < jobs:
                spec, attempt = pending.popleft()
                _build_inherited_trace(spec)
                run = attempts[attempt - 1]
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=_worker, args=(run, spec, sender), daemon=True)
                process.start()
                sender.close()  # child's end; keep only the read side here
                running[receiver] = (spec, attempt, process, time.monotonic())

            for receiver in connection.wait(list(running), timeout=_POLL_INTERVAL):
                spec, attempt, process, started = running.pop(receiver)
                try:
                    status, payload = receiver.recv()
                except EOFError:
                    status = "error"
                    payload = f"worker died (exit code {process.exitcode})"
                process.join()
                receiver.close()
                if status == "ok":
                    results.append((spec, decode_result(payload)))
                    progress.done(spec, time.monotonic() - started)
                else:
                    settle(spec, attempt, payload)

            now = time.monotonic()
            for receiver, (spec, attempt, process, started) in list(running.items()):
                if now - started >= timeout:
                    del running[receiver]
                    process.terminate()
                    process.join(1.0)
                    receiver.close()
                    settle(spec, attempt, f"timeout after {timeout:.0f}s")
    finally:
        for _spec, _attempt, process, _started in running.values():
            process.terminate()
            process.join(1.0)
    return results, failures

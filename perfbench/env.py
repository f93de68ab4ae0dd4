"""Process environment of a benchmark run: paths, isolation, host facts.

Everything a run reads or writes stays inside the checkout: the result
stores, the span dumps and the temporary files all live under
``.perfbench_out/`` at the checkout root, and ``~/.cache/repro`` is never
touched (``REPRO_CACHE_DIR`` points under ``.perfbench_out/`` as well, for
any code path that falls back to the default store).
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Measured by :func:`setup_seconds` in a fresh interpreter: import the
#: package, resolve every registry (plugin discovery included) and
#: fingerprint the sources, which is what every CLI call pays first.
_SETUP_PROGRAM = """
import time
start = time.perf_counter()
from repro.registry import load_plugins, registries
for registry in registries().values():
    registry.names()
load_plugins()
from repro.harness import code_fingerprint
code_fingerprint()
print(repr(time.perf_counter() - start))
"""

#: A fixed job of the same kind as set-up (import packages, hash a few
#: megabytes), from the standard library alone, so no change to the
#: repository moves it.  Timed in a fresh interpreter next to every
#: set-up to rescale set-up to the reference host speed.
_CALIBRATION_PROGRAM = """
import time
start = time.perf_counter()
import argparse, asyncio, csv, decimal, email.parser, hashlib, http.client
import json, logging, sqlite3, tarfile, unittest, xml.etree.ElementTree
hashlib.sha256(bytes(range(256)) * 8192).digest()
print(repr(time.perf_counter() - start))
"""
#: Median time of the calibration job on the reference host.
REFERENCE_CALIBRATION_S = 0.06


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def bootstrap() -> None:
    """Make ``src/`` importable and confine the package to the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSourceError(
            f"no repro package under {SRC}: run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(OUT / "cache")
    os.environ["TMPDIR"] = str(OUT)
    os.environ.pop("REPRO_PROGRESS", None)


class RunDir:
    """A private scratch directory for one run, removed on close."""

    def __init__(self, tag: str):
        self.path = OUT / f"run-{tag}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _child_seconds(program: str, env: Dict[str, str]) -> float:
    done = subprocess.run(
        [sys.executable, "-c", program], cwd=str(ROOT), env=env,
        capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(repeats: int) -> List[Tuple[float, float]]:
    """Set-up time of *repeats* fresh interpreters (each measured inside
    the child, so interpreter start-up itself is excluded), as host
    seconds and as seconds at the reference host speed.

    Set-up is mostly unmarshalling, file reads and hashing in C, which
    the host's speed changes move differently from the pure-Python host
    loop; it is rescaled instead by the calibration job, run in a fresh
    interpreter right after each set-up.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        seconds = _child_seconds(_SETUP_PROGRAM, env)
        calibration = _child_seconds(_CALIBRATION_PROGRAM, env)
        times.append((seconds,
                      seconds * REFERENCE_CALIBRATION_S / calibration))
    return times


#: Best time of :func:`_host_loop` on the host this benchmark was tuned
#: on (a 2-core Intel Xeon VM, CPython 3.11); see :func:`at_reference_speed`.
REFERENCE_LOOP_S = 0.007
#: Host-loop runs just before, and again just after, each timed operation.
LOOP_SAMPLES = 4


def _host_loop() -> int:
    total = 0
    table = {}
    for i in range(60_000):
        total += i * i % 7
        table[i & 1023] = total
    return total


def host_loop_times(count: int = LOOP_SAMPLES) -> List[float]:
    """Seconds per run of a fixed pure-Python loop, *count* times: how
    fast the shared host runs this interpreter right now."""
    times = []
    for _ in range(count):
        began = time.perf_counter()
        _host_loop()
        times.append(time.perf_counter() - began)
    return times


def at_reference_speed(seconds: float, loops: List[float]) -> float:
    """*seconds* of an operation, rescaled from the host's speed at the
    time to the reference speed: *loops* are host-loop times sampled just
    before and after the operation.

    The host is shared with other machines' work and switches for
    seconds or minutes at a time between speeds up to 1.8x apart.  The
    best of a few millisecond-long loops next to an operation tells which
    speed it ran at, so the rescaled time moves with the code, not with
    the neighbours.
    """
    return seconds * REFERENCE_LOOP_S / min(loops)


def peak_rss_mb() -> float:
    """The larger of this process's and its children's maximum RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> Optional[str]:
    """HEAD of the checkout read from ``.git`` directly (no subprocess, so
    nothing outside the checkout is searched); None when not a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_fingerprint() -> Dict[str, object]:
    """What must match before two results may be compared."""
    import numpy

    from repro.harness import code_fingerprint

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "code_fingerprint": code_fingerprint()[:16],
    }

"""The sweep layer: dedup -> warm-cache lookup -> schedule -> persist.

``sweep`` is what figures and the CLI call: give it every spec a figure
needs (duplicates welcome — overlapping figures share cells) and it
returns a spec-indexed result map, having simulated only the cells the
persistent store had never seen under the current code version.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from .progress import SweepProgress
from .scheduler import CellFailure, run_specs
from .spec import Spec
from .store import ResultStore, default_store

_UNSET = object()

#: Process-wide default progress sink, set by the CLI so figure modules
#: don't need a ``progress`` parameter threaded through every ``run()``.
_default_progress: Optional[SweepProgress] = None


def set_default_progress(progress: Optional[SweepProgress]) -> None:
    global _default_progress
    _default_progress = progress


def get_default_progress() -> Optional[SweepProgress]:
    return _default_progress


class SweepError(RuntimeError):
    """Raised when a sweep that must be complete has failed cells."""

    def __init__(self, failures: List[CellFailure]):
        self.failures = failures
        lines = "\n".join(f"  {failure.describe()}" for failure in failures)
        super().__init__(f"{len(failures)} cell(s) failed:\n{lines}")


class SweepReport:
    """Outcome of one sweep: results by spec, failures, cache accounting."""

    def __init__(self, results: Dict[Spec, object], failures: List[CellFailure],
                 hits: int, progress: SweepProgress):
        self.results = results
        self.failures = failures
        self.hits = hits
        self.progress = progress

    @property
    def misses(self) -> int:
        return len(self.results) - self.hits + len(self.failures)

    def require_complete(self) -> "SweepReport":
        if self.failures:
            raise SweepError(self.failures)
        return self

    def __getitem__(self, spec: Spec):
        return self.results[spec]


def sweep(
    specs: Sequence[Spec],
    jobs: Optional[int] = None,
    store=_UNSET,
    timeout: Optional[float] = None,
    executor: Optional[Callable] = None,
    progress: Optional[SweepProgress] = None,
) -> SweepReport:
    """Resolve every spec, through the store where possible.

    ``store=None`` disables persistence for this sweep; the default is
    the process store (``~/.cache/repro`` / ``$REPRO_CACHE_DIR``, or
    disabled entirely by ``REPRO_NO_CACHE``).
    """
    if store is _UNSET:
        store = default_store()
    progress = progress or get_default_progress() or SweepProgress()

    unique: List[Spec] = []
    seen = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)
    progress.start(len(unique))

    results: Dict[Spec, object] = {}
    cold: List[Spec] = []
    hits = 0
    for spec in unique:
        cached = store.get(spec) if store is not None else None
        if cached is not None:
            results[spec] = cached
            hits += 1
            progress.hit(spec)
        else:
            cold.append(spec)

    computed, failures = run_specs(
        cold, jobs=jobs, timeout=timeout, executor=executor,
        progress=progress)
    for spec, result in computed:
        results[spec] = result
        if store is not None:
            store.put(spec, result)
    return SweepReport(results, failures, hits, progress)

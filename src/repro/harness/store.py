"""Persistent result store: content-addressed JSON files on disk.

Layout::

    <root>/                     ~/.cache/repro, or $REPRO_CACHE_DIR
      v-<fingerprint16>/        one generation per code version
        <kind>-<digest16>.json  {"spec": ..., "result": ...}

The *code fingerprint* is a SHA-256 over every ``.py`` source of the
``repro`` package — the whole tree, so new subpackages are picked up
automatically — and editing the simulator silently invalidates the
cache (stale generations stay on disk until ``repro cache clear`` or
``repro cache gc``).  Writes are atomic (tmp file + ``os.replace``);
corrupt or unreadable entries read as misses, are deleted, and emit a
warning.  Set ``REPRO_NO_CACHE=1`` to disable the default store
entirely.

The store only grows on its own; :func:`run_gc` (``repro cache gc``)
reclaims space by two rules:

* **age** (``max_age`` seconds): entries not read or written for longer
  than the limit are evicted — a hit touches the entry's mtime, so
  mtime is a last-use clock;
* **size** (``max_bytes``): least-recently-used entries are evicted
  until the cache fits, entries of *stale* generations (any ``v-*``
  directory other than the current fingerprint's) before warm
  current-generation results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from .serialize import decode_result, encode_result
from .spec import Spec, spec_digest, spec_to_dict

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
NO_CACHE_ENV = "REPRO_NO_CACHE"
DEFAULT_CACHE_DIR = "~/.cache/repro"

_fingerprint_cache: Dict[str, str] = {}


def cache_root() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR).expanduser()


def fingerprint_sources(package_dir: Optional[Path] = None) -> List[Path]:
    """Every source file the code fingerprint covers, sorted.

    Walks the package tree rather than a hard-coded module list, so a
    new subpackage can never be silently missing from the fingerprint;
    ``tests/test_harness_store.py`` asserts every subpackage is
    represented.
    """
    if package_dir is None:
        package_dir = Path(__file__).resolve().parent.parent
    return sorted(package_dir.rglob("*.py"))


def code_fingerprint(package_dir: Optional[Path] = None) -> str:
    """SHA-256 of the ``repro`` package sources (cached per process)."""
    if package_dir is None:
        package_dir = Path(__file__).resolve().parent.parent
    package_dir = Path(package_dir).resolve()
    key = str(package_dir)
    if key not in _fingerprint_cache:
        digest = hashlib.sha256()
        for path in fingerprint_sources(package_dir):
            digest.update(str(path.relative_to(package_dir)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _fingerprint_cache[key] = digest.hexdigest()
    return _fingerprint_cache[key]


class ResultStore:
    """Spec-addressed result cache under one root directory."""

    def __init__(self, root: Optional[Path] = None,
                 fingerprint: Optional[str] = None):
        self.root = Path(root) if root is not None else cache_root()
        self.fingerprint = fingerprint or code_fingerprint()

    # -- paths -------------------------------------------------------------------
    @property
    def generation_dir(self) -> Path:
        return self.root / f"v-{self.fingerprint[:16]}"

    def path_for(self, spec: Spec) -> Path:
        return self.generation_dir / f"{spec.kind}-{spec_digest(spec)[:16]}.json"

    # -- access ------------------------------------------------------------------
    def get(self, spec: Spec):
        """The stored result for *spec*, or None on a miss."""
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
            result = decode_result(payload["result"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Corrupt entry (interrupted write of an old layout, truncated
            # file): drop it, warn, and recompute.
            warnings.warn(f"repro cache: dropping corrupt entry {path.name} "
                          f"({type(exc).__name__}: {exc})", stacklevel=2)
            path.unlink(missing_ok=True)
            return None
        try:
            os.utime(path)  # LRU clock for `cache gc`
        except OSError:
            pass
        return result

    def put(self, spec: Spec, result) -> Path:
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spec": spec_to_dict(spec),
            "result": encode_result(result),
        }
        # Atomic publish: a reader sees the old entry or the new one,
        # never a torn write — concurrent writers of the same digest are
        # safe because each replace is all-or-nothing.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        finally:
            # After a successful replace the temp name is gone; anything
            # still there means we are unwinding (including Ctrl-C) and
            # must not leave the orphan behind.  Nothing is caught, so
            # KeyboardInterrupt/SystemExit propagate untouched.
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path

    # -- management --------------------------------------------------------------
    def info(self) -> Dict:
        generations = []
        total_entries = 0
        total_bytes = 0
        if self.root.is_dir():
            for directory in sorted(self.root.glob("v-*")):
                entries = list(directory.glob("*.json"))
                size = sum(p.stat().st_size for p in entries)
                generations.append({
                    "name": directory.name,
                    "entries": len(entries),
                    "bytes": size,
                    "current": directory == self.generation_dir,
                })
                total_entries += len(entries)
                total_bytes += size
        return {
            "root": str(self.root),
            "fingerprint": self.fingerprint,
            "generations": generations,
            "entries": total_entries,
            "bytes": total_bytes,
        }

    def clear(self) -> int:
        """Delete every cached entry (all generations); returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for directory in self.root.glob("v-*"):
            for path in directory.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            try:
                directory.rmdir()
            except OSError:
                pass
        return removed


@dataclass
class CacheEntry:
    """One cached result file, with the facts eviction needs."""

    path: Path
    bytes: int
    mtime: float
    generation: str
    current: bool


@dataclass
class GcReport:
    """What one gc pass did."""

    scanned: int
    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int

    def render(self) -> str:
        return (f"cache gc: removed {self.removed}/{self.scanned} entries "
                f"({self.freed_bytes} bytes freed), "
                f"kept {self.kept} ({self.kept_bytes} bytes)")


def scan_entries(store: ResultStore) -> List[CacheEntry]:
    """Every result entry under the store root, all generations."""
    entries: List[CacheEntry] = []
    if not store.root.is_dir():
        return entries
    for directory in sorted(store.root.glob("v-*")):
        current = directory == store.generation_dir
        for path in directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent eviction
            entries.append(CacheEntry(path, stat.st_size, stat.st_mtime,
                                      directory.name, current))
    return entries


def plan_gc(entries: List[CacheEntry],
            max_bytes: Optional[int] = None,
            max_age: Optional[float] = None,
            now: Optional[float] = None) -> List[CacheEntry]:
    """The entries a gc pass should evict, in eviction order.

    Raises ValueError on a negative limit: no cache fits under one, so
    honouring it would silently evict everything.
    """
    for name, limit in (("max_bytes", max_bytes), ("max_age", max_age)):
        if limit is not None and limit < 0:
            raise ValueError(f"{name} must be >= 0, got {limit}")
    now = time.time() if now is None else now
    doomed: List[CacheEntry] = []
    doomed_paths = set()

    if max_age is not None:
        for entry in entries:
            if now - entry.mtime > max_age:
                doomed.append(entry)
                doomed_paths.add(entry.path)

    if max_bytes is not None:
        survivors = [e for e in entries if e.path not in doomed_paths]
        total = sum(e.bytes for e in survivors)
        # Stale generations first, then least recently used.
        survivors.sort(key=lambda e: (e.current, e.mtime))
        for entry in survivors:
            if total <= max_bytes:
                break
            doomed.append(entry)
            doomed_paths.add(entry.path)
            total -= entry.bytes
    return doomed


def run_gc(store: ResultStore,
           max_bytes: Optional[int] = None,
           max_age: Optional[float] = None,
           now: Optional[float] = None) -> GcReport:
    """Apply the eviction policy; empty generation dirs are pruned."""
    entries = scan_entries(store)
    doomed = plan_gc(entries, max_bytes=max_bytes, max_age=max_age, now=now)
    removed = 0
    freed = 0
    for entry in doomed:
        try:
            entry.path.unlink()
        except OSError:
            continue
        removed += 1
        freed += entry.bytes
    # Prune generation directories emptied by this pass.
    for directory in store.root.glob("v-*"):
        try:
            next(directory.iterdir())
        except StopIteration:
            try:
                directory.rmdir()
            except OSError:
                pass
        except OSError:
            pass
    kept = len(entries) - removed
    kept_bytes = sum(e.bytes for e in entries) - freed
    return GcReport(scanned=len(entries), removed=removed, freed_bytes=freed,
                    kept=kept, kept_bytes=kept_bytes)


def default_store() -> Optional[ResultStore]:
    """The process-default store, or None when caching is disabled."""
    if os.environ.get(NO_CACHE_ENV, "").lower() in ("1", "true", "yes", "on"):
        return None
    return ResultStore()

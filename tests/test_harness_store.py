"""Persistent store: hit/miss, fingerprint invalidation, management,
LRU/age garbage collection."""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.harness import (
    CellSpec,
    ResultStore,
    code_fingerprint,
    default_store,
    fingerprint_sources,
    simulate_cell,
)
from repro.harness.store import plan_gc, run_gc, scan_entries

SPEC = CellSpec("505.mcf_r", 64, "atr", 1000)


@pytest.fixture(scope="module")
def cell():
    return simulate_cell(SPEC)


def test_miss_then_hit(tmp_path, cell):
    store = ResultStore(root=tmp_path)
    assert store.get(SPEC) is None
    store.put(SPEC, cell)
    cached = store.get(SPEC)
    assert cached is not None
    assert cached.ipc == cell.ipc
    assert cached.stats == cell.stats


def test_fingerprint_change_invalidates(tmp_path, cell):
    old = ResultStore(root=tmp_path, fingerprint="a" * 64)
    old.put(SPEC, cell)
    assert old.get(SPEC) is not None

    # Same root, new code version: must be a miss, old entry untouched.
    new = ResultStore(root=tmp_path, fingerprint="b" * 64)
    assert new.get(SPEC) is None
    new.put(SPEC, cell)
    info = new.info()
    assert len(info["generations"]) == 2
    assert info["entries"] == 2
    assert sum(g["current"] for g in info["generations"]) == 1


def test_corrupt_entry_reads_as_miss_and_is_removed(tmp_path, cell):
    store = ResultStore(root=tmp_path)
    path = store.put(SPEC, cell)
    path.write_text("{not json")
    with pytest.warns(UserWarning, match="corrupt entry"):
        assert store.get(SPEC) is None
    assert not path.exists()
    # Recomputed and re-stored: hits again.
    store.put(SPEC, cell)
    assert store.get(SPEC) is not None


def test_truncated_entry_reads_as_miss(tmp_path, cell):
    store = ResultStore(root=tmp_path)
    path = store.put(SPEC, cell)
    path.write_text(path.read_text()[: path.stat().st_size // 2])
    with pytest.warns(UserWarning, match="corrupt entry"):
        assert store.get(SPEC) is None
    assert not path.exists()


def test_clear_removes_all_generations(tmp_path, cell):
    ResultStore(root=tmp_path, fingerprint="a" * 64).put(SPEC, cell)
    ResultStore(root=tmp_path, fingerprint="b" * 64).put(SPEC, cell)
    store = ResultStore(root=tmp_path)
    assert store.clear() == 2
    assert store.info()["entries"] == 0
    assert store.clear() == 0  # idempotent, even with no directory content


def test_default_store_honors_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    store = default_store()
    assert store is not None
    assert store.root == tmp_path / "elsewhere"


def test_default_store_disabled_by_no_cache_env(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert default_store() is None


def _put_many(root: str, worker: int, repeats: int) -> None:
    store = ResultStore(root=Path(root), fingerprint="c" * 64)
    for _ in range(repeats):
        store.put(SPEC, {"worker": worker})  # raw payload round-trips


def test_concurrent_puts_same_digest_no_corruption(tmp_path):
    """Two processes hammering one digest: the entry stays valid JSON."""
    context = multiprocessing.get_context("fork")
    repeats = 20
    workers = [context.Process(target=_put_many,
                               args=(str(tmp_path), i, repeats))
               for i in range(2)]
    for process in workers:
        process.start()
    for process in workers:
        process.join(30)
        assert process.exitcode == 0
    store = ResultStore(root=tmp_path, fingerprint="c" * 64)
    result = store.get(SPEC)
    assert result in ({"worker": 0}, {"worker": 1})
    # The entry file is intact JSON with the full envelope.
    payload = json.loads(store.path_for(SPEC).read_text())
    assert payload["result"]["kind"] == "raw"
    # No orphaned temp files from the atomic-write dance.
    assert not list(store.generation_dir.glob("*.tmp"))


def test_code_fingerprint_stable_in_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_fingerprint_covers_every_subpackage():
    """Regression guard for stale fingerprints: every subpackage of
    ``repro`` (including ones added after the store was written, like
    ``repro.staticcheck``) must contribute sources to the fingerprint."""
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    covered = {path.parent for path in fingerprint_sources()}
    subpackages = [directory for directory in package_dir.iterdir()
                   if directory.is_dir() and (directory / "__init__.py").is_file()]
    assert subpackages, "repro has subpackages"
    missing = [str(d) for d in subpackages if d not in covered]
    assert not missing, f"subpackages missing from code fingerprint: {missing}"
    # A subpackage added after the store was written, specifically.
    assert any(d.name == "staticcheck" for d in subpackages)


def test_fingerprint_tracks_new_subpackage_files(tmp_path):
    """Adding a file anywhere under the package tree changes the
    fingerprint — no hard-coded module list to forget to update."""
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "sub" / "__init__.py").write_text("x = 1\n")
    first = code_fingerprint(package)
    (package / "sub" / "new_module.py").write_text("y = 2\n")
    # Bypass the per-process memo by hashing a copy at a new path.
    import shutil

    clone = tmp_path / "pkg2"
    shutil.copytree(package, clone)
    assert code_fingerprint(clone) != first


# -- garbage collection ----------------------------------------------------------

def gc_spec(scheme):
    return CellSpec("505.mcf_r", 64, scheme, 500)


def fill(store, schemes=("baseline", "atr", "combined")):
    for scheme in schemes:
        store.put(gc_spec(scheme), {"scheme": scheme})


def set_mtime(path, when):
    os.utime(path, (when, when))


def test_scan_sees_all_generations(tmp_path):
    old = ResultStore(root=tmp_path, fingerprint="a" * 64)
    new = ResultStore(root=tmp_path, fingerprint="b" * 64)
    fill(old)
    fill(new)
    entries = scan_entries(new)
    assert len(entries) == 6
    assert sum(e.current for e in entries) == 3
    assert {e.generation for e in entries} == {"v-" + "a" * 16,
                                               "v-" + "b" * 16}


def test_age_rule_evicts_stale_entries(tmp_path):
    store = ResultStore(root=tmp_path)
    fill(store)
    now = time.time()
    set_mtime(store.path_for(gc_spec("baseline")), now - 1000)

    report = run_gc(store, max_age=500, now=now)
    assert report.removed == 1
    assert store.get(gc_spec("baseline")) is None
    assert store.get(gc_spec("atr")) is not None


def test_size_rule_evicts_lru_stale_generations_first(tmp_path):
    old = ResultStore(root=tmp_path, fingerprint="a" * 64)
    store = ResultStore(root=tmp_path)
    fill(old)
    fill(store)
    now = time.time()
    # Make a current-generation entry the globally oldest: the stale
    # generation must still go first.
    set_mtime(store.path_for(gc_spec("baseline")), now - 9999)

    entries = scan_entries(store)
    current_bytes = sum(e.bytes for e in entries if e.current)
    doomed = plan_gc(entries, max_bytes=current_bytes, now=now)
    assert all(not e.current for e in doomed)
    assert len(doomed) == 3

    report = run_gc(store, max_bytes=current_bytes, now=now)
    assert report.removed == 3
    # The stale generation directory is pruned once emptied.
    assert not (tmp_path / ("v-" + "a" * 16)).exists()
    assert store.get(gc_spec("atr")) is not None


def test_hits_refresh_lru_position(tmp_path):
    """store.get touches mtime, so a hot entry survives size pressure
    that evicts its colder siblings."""
    store = ResultStore(root=tmp_path)
    fill(store)
    now = time.time()
    for scheme in ("baseline", "atr", "combined"):
        set_mtime(store.path_for(gc_spec(scheme)), now - 5000)
    assert store.get(gc_spec("atr")) is not None  # refreshes mtime to ~now

    entries = scan_entries(store)
    keep_bytes = max(e.bytes for e in entries) + 1
    report = run_gc(store, max_bytes=keep_bytes, now=now)
    assert report.removed == 2
    assert store.get(gc_spec("atr")) is not None


def test_gc_to_zero(tmp_path):
    store = ResultStore(root=tmp_path)
    fill(store)
    report = run_gc(store, max_bytes=0)
    assert report.removed == 3
    assert report.kept == 0
    assert store.info()["entries"] == 0
    # The emptied current generation directory is pruned too.
    assert not store.generation_dir.exists()
    # gc over an empty cache is a clean no-op.
    empty = run_gc(store, max_bytes=0, max_age=1)
    assert (empty.scanned, empty.removed) == (0, 0)


@pytest.mark.parametrize("limits", [{"max_bytes": -1}, {"max_age": -5}])
def test_gc_rejects_negative_limit(tmp_path, limits):
    """A negative limit fits no cache; it must not evict everything."""
    store = ResultStore(root=tmp_path)
    fill(store)
    with pytest.raises(ValueError, match=">= 0"):
        run_gc(store, **limits)
    assert store.info()["entries"] == 3

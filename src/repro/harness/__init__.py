"""repro.harness — parallel sweep engine with a persistent result store.

Figures, ``run_cell`` and ``repro sweep`` resolve every cell through
:func:`sweep`, and :func:`simulate_cell` computes each one (``repro
run`` and ``repro compare`` call it directly):

* **job model** (:mod:`.spec`, :mod:`.jobs`): hashable `CellSpec` /
  `RegionSpec` identify one unit of work; `execute_spec` produces the
  result in any process.
* **serialization** (:mod:`.serialize`): one JSON encoding for both the
  worker pipe and the on-disk store.
* **store** (:mod:`.store`): content-addressed cache under
  ``~/.cache/repro`` (``$REPRO_CACHE_DIR``), keyed by spec digest and a
  code-version fingerprint — warm across invocations, auto-invalidated
  on simulator edits, trimmed by LRU/age gc (``repro cache gc``).
* **scheduler** (:mod:`.scheduler`): shards cold specs over forked
  workers (``--jobs N``) that inherit the traces the sweep process
  built, per-cell timeout + one retry, serial fallback.
* **progress** (:mod:`.progress`): live narration + end-of-sweep summary.
* **sweep** (:mod:`.sweep`): the one call sites use — dedup, warm-cache
  lookup, schedule, persist.
"""

from .jobs import (
    CellResult,
    analyze_regions,
    execute_spec,
    execute_spec_diagnose,
    simulate_cell,
)
from .progress import SweepProgress
from .scheduler import CellFailure, default_timeout, resolve_jobs, run_specs
from .serialize import (
    decode_cell_result,
    decode_result,
    encode_cell_result,
    encode_result,
)
from .spec import (
    DETAILED,
    CellSpec,
    RegionSpec,
    Spec,
    TierPolicy,
    register_spec_type,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
)
from .store import (
    ResultStore,
    cache_root,
    code_fingerprint,
    default_store,
    fingerprint_sources,
)
from .sweep import (
    SweepError,
    SweepReport,
    get_default_progress,
    set_default_progress,
    sweep,
)

__all__ = [
    "CellSpec", "RegionSpec", "Spec", "TierPolicy", "DETAILED",
    "spec_digest", "spec_to_dict", "spec_from_dict", "register_spec_type",
    "CellResult", "execute_spec", "execute_spec_diagnose", "simulate_cell",
    "analyze_regions",
    "encode_result", "decode_result", "encode_cell_result", "decode_cell_result",
    "ResultStore", "default_store", "cache_root", "code_fingerprint",
    "fingerprint_sources",
    "CellFailure", "run_specs", "resolve_jobs", "default_timeout",
    "SweepProgress",
    "sweep", "SweepReport", "SweepError",
    "set_default_progress", "get_default_progress",
]

"""Pin of the memory model: every cache, MSHR and DRAM counter.

``tests/data/memory_stats.json`` holds, for ten detailed cells and for
the hierarchy two fast-forward checkpoints hand over, each level's
``stats_table()`` row, every ``CacheStats`` field, the MSHR merge and
stall counts, DRAM accesses and row misses, and a digest of each level's
resident blocks with their dirty and prefetched marks.  Golden stats pin
the core's timing; this pins the model underneath it, so a change that
keeps cycles but moves a cache counter still fails.

Regenerate (only for a change that is meant to move these numbers)::

    PYTHONPATH=src python -m tests.test_memory_stats > tests/data/memory_stats.json
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.pipeline import Core, golden_cove_config
from repro.pipeline.warmup import fast_forward
from repro.workloads import build_trace

PIN_PATH = Path(__file__).parent / "data" / "memory_stats.json"

RF_SIZE = 64
DETAILED_INSTRUCTIONS = 3_000
DETAILED_CELLS = [
    (benchmark, scheme)
    for benchmark in ("505.mcf_r", "503.bwaves_r", "519.lbm_r",
                      "525.x264_r", "548.exchange2_r")
    for scheme in ("baseline", "atr")
]
CHECKPOINT_INSTRUCTIONS = 20_000
CHECKPOINT_STOP = 12_000
CHECKPOINT_CELLS = ["503.bwaves_r", "505.mcf_r"]


def _contents_digest(cache) -> str:
    """Digest of the resident blocks per set (LRU order) and their marks."""
    state = (sorted(cache._sets.items()), sorted(cache._dirty),
             sorted(cache._prefetched))
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


def memory_counters(memory) -> dict:
    out = {"stats_table": memory.stats_table()}
    for cache in (memory.l1i, memory.l1d, memory.l2, memory.llc):
        out[cache.name] = dict(asdict(cache.stats),
                               contents=_contents_digest(cache))
    out["mshr_merges"] = memory.mshr_merges
    out["mshr_stalls"] = memory.mshr_stalls
    out["dram_accesses"] = memory.dram.accesses
    out["dram_row_misses"] = memory.dram.row_misses
    return out


def detailed_counters(benchmark: str, scheme: str) -> dict:
    config = golden_cove_config(rf_size=RF_SIZE, scheme=scheme)
    core = Core(config, build_trace(benchmark, DETAILED_INSTRUCTIONS))
    core.run()
    return memory_counters(core.state.memory)


def checkpoint_counters(benchmark: str) -> dict:
    config = golden_cove_config(rf_size=RF_SIZE)
    trace = build_trace(benchmark, CHECKPOINT_INSTRUCTIONS)
    warm, = fast_forward(config, trace, [CHECKPOINT_STOP])
    return memory_counters(warm.memory)


def collect() -> dict:
    return {
        "detailed": {f"{benchmark}/{scheme}": detailed_counters(benchmark, scheme)
                     for benchmark, scheme in DETAILED_CELLS},
        "checkpoint": {benchmark: checkpoint_counters(benchmark)
                       for benchmark in CHECKPOINT_CELLS},
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PIN_PATH.read_text())


# ``bench``, not ``benchmark``: pytest-benchmark, when installed, claims
# that fixture name.
@pytest.mark.parametrize("bench,scheme", DETAILED_CELLS)
def test_detailed_cell_reproduces_memory_counters(pins, bench, scheme):
    counters = json.loads(json.dumps(detailed_counters(bench, scheme)))
    assert counters == pins["detailed"][f"{bench}/{scheme}"]


@pytest.mark.parametrize("bench", CHECKPOINT_CELLS)
def test_checkpoint_reproduces_memory_counters(pins, bench):
    counters = json.loads(json.dumps(checkpoint_counters(bench)))
    assert counters == pins["checkpoint"][bench]


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1, sort_keys=True))

"""Pin of the two observer probes: the register event log and the timeline.

``tests/data/observer_digests.json`` holds, for {mcf, x264, bwaves,
namd} x {baseline, atr, combined} (rf=64, 3,000 instructions), a digest
of ``[r.to_dict() for r in RegisterEventLog.records]`` and of the
``TimelineProbe.rows``.  The digests were captured when both observers
were still config switches on the core, so they pin the probes against
the switches they replaced; the pinned cells run on one core with both
probes attached, which also checks that the two do not disturb each
other.

Regenerate (only for a change that is meant to move these numbers)::

    PYTHONPATH=src python -m tests.test_observers > tests/data/observer_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.pipeline import (
    Core,
    InterruptController,
    RegisterEventLog,
    TimelineProbe,
    golden_cove_config,
)
from repro.workloads import build_trace

PIN_PATH = Path(__file__).parent / "data" / "observer_digests.json"

RF_SIZE = 64
INSTRUCTIONS = 3_000
CELLS = [f"{benchmark}/{scheme}"
         for benchmark in ("505.mcf_r", "525.x264_r", "503.bwaves_r", "508.namd_r")
         for scheme in ("baseline", "atr", "combined")]


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def observe(cell: str) -> dict:
    """Digests of what a log and a timeline attached to one core saw."""
    benchmark, scheme = cell.split("/")
    core = Core(golden_cove_config(rf_size=RF_SIZE, scheme=scheme),
                build_trace(benchmark, INSTRUCTIONS))
    log = core.add_probe(RegisterEventLog())
    timeline = core.add_probe(TimelineProbe())
    core.run()
    records = [record.to_dict() for record in log.records]
    rows = [list(row) for row in timeline.rows]
    return {"event_records": len(records), "events": _digest(records),
            "timeline_rows": len(rows), "timeline": _digest(rows)}


def collect() -> dict:
    return {cell: observe(cell) for cell in CELLS}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PIN_PATH.read_text())


@pytest.mark.parametrize("cell", CELLS)
def test_observers_match_pin(cell, pinned):
    assert observe(cell) == pinned[cell]


def test_no_state_left_for_in_flight_entries():
    """Branch flushes squash wrong-path entries, for which the timeline
    holds open rows; interrupt flushes squash correct-path ones, for
    which the log holds displaced chains (under baseline, which lets an
    interrupt flush at once).  A probe that missed ``on_flush`` would
    keep either after the run."""
    core = Core(golden_cove_config(rf_size=RF_SIZE, scheme="baseline"),
                build_trace("505.mcf_r", INSTRUCTIONS))
    controller = InterruptController(core, policy="flush", service_cycles=40)
    for cycle in (500, 1500, 2500):
        controller.schedule(cycle)
    log = core.add_probe(RegisterEventLog())
    timeline = core.add_probe(TimelineProbe())
    core.run()
    assert core.stats.flushes > controller.stats.serviced == 3
    assert controller.stats.flushed_instructions > 0
    assert log._pending == {}
    assert timeline._open == {}
    assert len(timeline.rows) == core.stats.committed


def test_timeline_attached_mid_run():
    """Entries renamed before the probe was attached leave no row, and
    the run does not raise on them."""
    core = Core(golden_cove_config(rf_size=RF_SIZE, scheme="atr"),
                build_trace("505.mcf_r", INSTRUCTIONS))
    state = core.state
    while state.stats.committed < 500:
        state.cycle += 1
        core.step()
    attached_at = state.cycle
    timeline = core.add_probe(TimelineProbe())
    log = core.add_probe(RegisterEventLog())
    core.run()
    assert 0 < len(timeline.rows) < INSTRUCTIONS
    assert all(row[2] > attached_at for row in timeline.rows)
    assert all(record.alloc_cycle > attached_at for record in log.records)
    assert timeline._open == {} and log._pending == {}


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1, sort_keys=True))

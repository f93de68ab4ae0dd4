"""Tiered simulation: warmup equivalence, window stitching, spec plumbing.

The load-bearing property is *warmup equivalence*: fast-forwarding a
prefix by replaying the trace and then running a detailed window must
land on exactly the architectural state the golden emulator reaches at
the window's start and at its end — on every kernel in the suite.  If
the replay committed a wrong register value or skipped a store, or
warmup primed the core wrongly, one of the two comparisons exposes it.
"""

import json
from pathlib import Path

import pytest

from repro.frontend import Trace
from repro.frontend.emulator import Emulator
from repro.harness import (
    CellSpec,
    TierPolicy,
    simulate_cell,
    spec_digest,
    spec_from_dict,
    spec_to_dict,
)
from repro.isa import DataImage
from repro.pipeline import Core, fast_test_config, golden_cove_config
from repro.pipeline.warmup import fast_forward
from repro.tiered import run_tiered
from repro.workloads import ALL_BENCHMARKS, build_trace, workload_for
from repro.workloads.simpoint import SimPoint, slice_trace


@pytest.mark.parametrize("kernel", sorted(ALL_BENCHMARKS))
def test_warmup_equivalence_kernel_suite(kernel):
    """fast-forward -> detailed window == emulator-from-reset, exactly."""
    trace = build_trace(kernel, 2400)
    total = len(trace.entries)
    start = total // 2
    config = fast_test_config(rf_size=64, scheme="atr")

    warm = fast_forward(config, trace, [start])[0]
    assert warm.instructions == start

    # The replayed prefix lands exactly where executing it does.
    emulator = Emulator(trace.program)
    for _ in range(start):
        assert emulator.step() is not None
    mismatches = warm.arch.diff(emulator.snapshot(), limit=16)
    assert not mismatches, "\n".join(mismatches)

    window = SimPoint(interval_index=0, start=start, length=total - start,
                      weight=1.0, cluster=0)
    core = Core(config, slice_trace(trace, window), warmup=warm)
    core.run()

    for _ in range(total - start):
        assert emulator.step() is not None
    golden = emulator.snapshot()

    mismatches = core.architectural_state().diff(golden, limit=16)
    assert not mismatches, "\n".join(mismatches)


def test_warmup_stops_deduplicated_and_ordered():
    trace = build_trace("505.mcf_r", 1200)
    config = fast_test_config(rf_size=64)
    snapshots = fast_forward(config, trace, [800, 0, 400, 800])
    assert [w.instructions for w in snapshots] == [0, 400, 800]
    # The cold checkpoint carries reset-state registers.
    assert snapshots[0].arch.int_regs == tuple([0] * 16)


def test_warmup_rejects_out_of_range_stops():
    trace = build_trace("505.mcf_r", 600)
    config = fast_test_config(rf_size=64)
    with pytest.raises(ValueError):
        fast_forward(config, trace, [len(trace.entries) + 1])


def test_warmup_checkpoint_seeds_one_core():
    """The predictor and caches move into the first core; a second core
    from the same checkpoint must raise, not share them."""
    trace = build_trace("531.deepsjeng_r", 1600)
    config = fast_test_config(rf_size=64, scheme="atr")
    start = 800
    warm = fast_forward(config, trace, [start])[0]
    branch_unit, memory = warm.branch_unit, warm.memory
    window = SimPoint(interval_index=0, start=start, length=800,
                      weight=1.0, cluster=0)
    core = Core(config, slice_trace(trace, window), warmup=warm)
    assert core.state.branch_unit is branch_unit
    assert core.state.memory is memory
    with pytest.raises(RuntimeError, match="already seeded a core"):
        Core(config, slice_trace(trace, window), warmup=warm)
    assert core.run().committed == 800


def test_warm_cores_adopt_the_fast_forward_state(monkeypatch):
    """k windows build one predictor and one hierarchy, the ones
    fast_forward primes; each core adopts its checkpoint's copy."""
    from repro.branch import Tage
    from repro.memory import MemoryHierarchy

    built = {"tage": 0, "memory": 0}
    tage_init, memory_init = Tage.__init__, MemoryHierarchy.__init__

    def counting_tage(self, *args, **kwargs):
        built["tage"] += 1
        tage_init(self, *args, **kwargs)

    def counting_memory(self, *args, **kwargs):
        built["memory"] += 1
        memory_init(self, *args, **kwargs)

    monkeypatch.setattr(Tage, "__init__", counting_tage)
    monkeypatch.setattr(MemoryHierarchy, "__init__", counting_memory)
    trace = build_trace("505.mcf_r", 6000)
    config = fast_test_config(rf_size=64, scheme="atr")
    _, _, info = run_tiered(config, trace, interval=1000, max_windows=3)
    assert len(info["windows"]) == 3
    assert built == {"tage": 1, "memory": 1}


@pytest.mark.parametrize("kernel", ["503.bwaves_r", "520.omnetpp_r"])
def test_no_emulator_core_or_checkpoint_copies_the_data_image(kernel,
                                                              monkeypatch):
    """bwaves' data image is two 2 MiB blocks, omnetpp's one.  The
    emulator, six fast-forward checkpoints and every core share the
    builder's blocks by identity and never walk the image word by word,
    and emulating, fast-forwarding and running cores leave the blocks as
    the builder made them (bwaves stores vectors, omnetpp scalars)."""
    n = 12_000
    entry, variant = workload_for(kernel)
    program = entry.build(n, variant=variant)
    blocks = [values for *_span, values in program.data.blocks]
    contents = [values.tobytes() for values in blocks]

    def shares_blocks(image):
        held = [values for *_span, values in image.blocks]
        return len(held) == len(blocks) and all(
            mine is theirs for mine, theirs in zip(held, blocks))

    def expanded(*_args):
        raise AssertionError("the data image was expanded word by word")

    monkeypatch.setattr(DataImage, "_pairs", expanded)  # every word-by-word walk
    trace = Emulator(program).run(max_instructions=n)
    config = fast_test_config(rf_size=64, scheme="atr")
    warm = fast_forward(config, trace, [0, 2000, 4000, 6000, 8000, 10_000])
    assert all(shares_blocks(checkpoint.data) for checkpoint in warm)

    window = SimPoint(interval_index=0, start=10_000, length=n - 10_000,
                      weight=1.0, cluster=0)
    cores = [Core(config, slice_trace(trace, window), warmup=warm[-1]),
             Core(config, Trace(program=program, entries=trace.entries[:2000]))]
    for core in cores:
        assert shares_blocks(core.trace.program.data)
        assert shares_blocks(core.stages.execute_unit.data_word.__self__)
        core.run()
    monkeypatch.undo()
    assert [values.tobytes() for values in blocks] == contents


#: Every SimStats and SchemeStats field and each window's cycles of four
#: tiered cells: golden_stats.json pins only cold cores, so these are
#: what pin warm checkpoint state (predictor, caches, adopted core).
TIERED_PINS = json.loads(
    (Path(__file__).parent / "data" / "tiered_stats.json").read_text())


@pytest.mark.parametrize("index", range(len(TIERED_PINS["cells"])))
def test_tiered_cell_reproduces_pinned_stats(index):
    cell = TIERED_PINS["cells"][index]
    spec = CellSpec(cell["benchmark"], TIERED_PINS["rf_size"], cell["scheme"],
                    TIERED_PINS["instructions"],
                    tier=TierPolicy(**TIERED_PINS["tier"]))
    result = simulate_cell(spec)
    assert [w["cycles"] for w in result.tier_info["windows"]] == \
        cell["window_cycles"]
    assert json.loads(json.dumps(result.stats.to_dict())) == cell["sim_stats"]
    assert json.loads(json.dumps(result.scheme_stats.to_dict())) == \
        cell["scheme_stats"]


def test_tiered_stitching_scales_to_full_trace():
    trace = build_trace("505.mcf_r", 6000)
    config = fast_test_config(rf_size=64, scheme="atr")
    stats, scheme_stats, info = run_tiered(config, trace, interval=1000,
                                           max_windows=3)
    assert stats.committed == len(trace.entries)
    assert stats.cycles > 0
    assert info["mode"] == "tiered"
    assert info["detailed_instructions"] == sum(
        w["length"] for w in info["windows"])
    assert info["detailed_instructions"] <= len(trace.entries)
    assert abs(sum(w["weight"] for w in info["windows"]) - 1.0) < 1e-9
    # Committed-instruction classes are scaled to full-trace magnitude.
    assert sum(stats.committed_by_class.values()) == pytest.approx(
        stats.committed, rel=0.05)
    # The scheme's accounting scales with it (atr frees registers early).
    assert scheme_stats.atr_frees > 0


@pytest.mark.parametrize("scheme", ["baseline", "atr", "combined"])
@pytest.mark.parametrize("kernel", ["505.mcf_r", "503.bwaves_r",
                                    "525.x264_r"])
def test_one_window_tiered_run_is_the_detailed_run(kernel, scheme):
    """A tiered run whose one window covers the whole trace stitches
    every SimStats and SchemeStats field to the detailed run's value,
    so a counter added to either dataclass cannot stitch as zero."""
    trace = build_trace(kernel, 3000)
    config = golden_cove_config(rf_size=64, scheme=scheme)
    stats, scheme_stats, _ = run_tiered(config, trace, interval=len(trace),
                                        max_windows=1)
    core = Core(config, trace)
    assert stats == core.run()
    assert scheme_stats == core.scheme.stats


def test_tiered_ipc_tracks_detailed_reference():
    """The tiered estimate is within a loose band of the full detailed
    run — this is a fidelity smoke, EXPERIMENTS.md holds the real data."""
    trace = build_trace("505.mcf_r", 6000)
    config = fast_test_config(rf_size=64, scheme="atr")
    stats, _, _ = run_tiered(config, trace, interval=1000, max_windows=3)
    detailed = Core(config, trace).run()
    assert stats.ipc == pytest.approx(detailed.ipc, rel=0.25)


def test_tier_policy_spec_roundtrip_and_identity():
    tiered = CellSpec("505.mcf_r", 64, "atr", 4000,
                      tier=TierPolicy(mode="tiered"))
    detailed = CellSpec("505.mcf_r", 64, "atr", 4000)
    assert spec_from_dict(spec_to_dict(tiered)) == tiered
    assert spec_from_dict(spec_to_dict(detailed)) == detailed
    # The tier is part of the spec identity: a tiered result must never
    # answer a detailed request from the cache.
    assert spec_digest(tiered) != spec_digest(detailed)
    assert "tiered" in tiered.describe()
    with pytest.raises(ValueError):
        TierPolicy(mode="approximate")


def test_tiered_cell_through_harness():
    spec = CellSpec("505.mcf_r", 64, "atr", 4000,
                    tier=TierPolicy(mode="tiered", interval=1000,
                                    max_windows=2))
    result = simulate_cell(spec)
    assert result.stats.committed == 4000
    assert result.tier_info is not None
    assert len(result.tier_info["windows"]) <= 2

    from repro.harness import decode_cell_result, encode_cell_result
    decoded = decode_cell_result(encode_cell_result(result))
    assert decoded.tier_info == result.tier_info
    assert decoded.stats.to_dict() == result.stats.to_dict()


def test_tiered_rejects_register_event_recording():
    spec = CellSpec("505.mcf_r", 64, "atr", 4000,
                    record_register_events=True,
                    tier=TierPolicy(mode="tiered"))
    with pytest.raises(ValueError, match="detailed"):
        simulate_cell(spec)

"""Staged-pipeline regression tests.

Covers the stage/probe decomposition of the core:

* **Golden stats** — the refactored pipeline reproduces the
  pre-refactor fixture (``tests/data/golden_stats.json``) bit for bit,
  and every release scheme reproduces ``tests/data/scheme_stats.json``.
* **One record** — the entry fetch builds is the object that is renamed,
  issued, and committed or flushed.
* **Hook binding** — stages call scheme hooks installed on the instance.
* **Stage order** — the documented 7-phase order holds on every cycle,
  including flush and interrupt-service cycles, observed through a
  recording probe rather than instrumentation hacks.
* **Probe layer** — zero-cost-when-off wiring, event emission points,
  and removal semantics.
* **Predictor registry** — unknown predictors fail at config build with
  the valid names listed.
* **Chaos stage wrappers** — seeded fault injection replays
  bit-identically through the stage interface.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.branch import PREDICTORS, make_predictor
from repro.frontend import run_program
from repro.isa import assemble
from repro.pipeline import (
    PHASE_ORDER,
    Core,
    CoreConfig,
    InterruptController,
    Probe,
    RecordingProbe,
    fast_test_config,
    golden_cove_config,
)
from repro.validate.chaos import ChaosSpec, run_chaos_cell
from repro.workloads import build_trace


GOLDEN_PATH = Path(__file__).parent / "data" / "golden_stats.json"

#: SimStats and SchemeStats of every scheme, ATR with a two-cycle
#: redefinition delay included, on four refs (rf=64, 3,000 instructions).
SCHEME_STATS = json.loads(
    (Path(__file__).parent / "data" / "scheme_stats.json").read_text())


def _normalize(d):
    """JSON round-trip: the fixture stores int histogram keys as strings."""
    return json.loads(json.dumps(d))


class TestGoldenStats:
    """The refactor must not change simulated behaviour at all."""

    @pytest.fixture(scope="class")
    def fixture_data(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_fixture_present_and_complete(self, fixture_data):
        assert fixture_data["cells"], "golden fixture must hold cells"
        schemes = {c["scheme"] for c in fixture_data["cells"]}
        assert {"baseline", "atr"} <= schemes

    @pytest.mark.parametrize("index", range(4))
    def test_cell_reproduces_exactly(self, fixture_data, index):
        cell = fixture_data["cells"][index]
        trace = build_trace(cell["benchmark"], fixture_data["instructions"])
        config = golden_cove_config(
            rf_size=fixture_data["rf_size"], scheme=cell["scheme"])
        core = Core(config, trace)
        stats = core.run()
        assert _normalize(stats.to_dict()) == cell["sim_stats"]
        assert _normalize(core.scheme.stats.to_dict()) == cell["scheme_stats"]


def _scheme_cell_id(cell):
    return f"{cell['benchmark']}-{cell['scheme']}-delay{cell['redefine_delay']}"


class TestSchemeStats:
    """golden_stats.json pins baseline and ATR only; these cells pin
    nonspec-ER, the combined scheme and ATR's delayed redefinition too,
    whose hooks (precommit, writeback, the delayed tick) the stages bind."""

    @pytest.mark.parametrize("cell", SCHEME_STATS["cells"], ids=_scheme_cell_id)
    def test_cell_reproduces_exactly(self, cell):
        trace = build_trace(cell["benchmark"], SCHEME_STATS["instructions"])
        config = dataclasses.replace(
            golden_cove_config(rf_size=SCHEME_STATS["rf_size"],
                               scheme=cell["scheme"]),
            redefine_delay=cell["redefine_delay"])
        core = Core(config, trace)
        stats = core.run()
        assert _normalize(stats.to_dict()) == cell["sim_stats"]
        assert _normalize(core.scheme.stats.to_dict()) == cell["scheme_stats"]


class _EntryLog(Probe):
    """Keeps the object each lifecycle event delivers."""

    def __init__(self):
        self.fetched = {}
        self.later = {"rename": [], "issue": [], "commit": [], "flush": []}

    def on_fetch(self, entry, cycle):
        self.fetched[entry.seq] = entry

    def on_rename(self, entry, cycle):
        self.later["rename"].append(entry)

    def on_issue(self, entry, cycle):
        self.later["issue"].append(entry)

    def on_commit(self, entry, cycle):
        self.later["commit"].append(entry)

    def on_flush(self, flushed, kind, cycle):
        self.later["flush"].extend(flushed)


class TestOneRecord:
    def test_fetched_entry_is_the_record_that_retires(self):
        """One object per in-flight instruction: rename, issue, commit and
        flush see exactly the entry fetch built, on both paths."""
        trace = build_trace("505.mcf_r", 2000)
        core = Core(golden_cove_config(rf_size=64, scheme="atr"), trace)
        log = core.add_probe(_EntryLog())
        stats = core.run()
        assert stats.wrong_path_renamed > 0, "run must fetch down wrong paths"
        assert len(log.fetched) == stats.fetched
        assert len(log.later["commit"]) == stats.committed
        assert log.later["flush"], "run must flush renamed entries"
        for event, entries in log.later.items():
            for entry in entries:
                assert log.fetched[entry.seq] is entry, (event, entry.seq)
        assert any(entry.wrong_path for entry in log.later["flush"])
        assert all(entry.trace_seq == entry_index for entry_index, entry
                   in enumerate(log.later["commit"]))


#: Every per-instruction or per-event scheme hook the stages call.
_HOOKS = ("pre_rename", "post_rename", "on_issue", "on_writeback",
          "on_precommit", "on_commit", "on_flush")


class _HookCountingCore(Core):
    """Wraps the scheme's hooks on the instance before the stages are
    built, as a tracer timing the hooks does."""

    def _build_stages(self, state):
        scheme = state.scheme
        self.hook_calls = Counter()
        for hook in _HOOKS:
            def counted(*args, _hook=hook, _call=getattr(scheme, hook)):
                self.hook_calls[_hook] += 1
                return _call(*args)
            setattr(scheme, hook, counted)
        return super()._build_stages(state)


class TestSchemeHookBinding:
    @pytest.mark.parametrize("scheme", ["baseline", "atr"])
    def test_hooks_installed_on_the_instance_are_called(self, scheme):
        """Stages may skip a hook the scheme's class inherits as a no-op
        (baseline inherits all of pre_rename, post_rename, on_issue,
        on_writeback and on_precommit), but never one set on the
        instance."""
        trace = build_trace("531.deepsjeng_r", 2000)
        core = _HookCountingCore(golden_cove_config(rf_size=64, scheme=scheme),
                                 trace)
        stats = core.run()
        calls = core.hook_calls
        assert calls["pre_rename"] == stats.renamed
        assert calls["post_rename"] == stats.renamed
        assert calls["on_commit"] == stats.committed
        # Flushes never squash a precommitted entry, and the run drains.
        assert calls["on_precommit"] == stats.committed
        assert calls["on_issue"] >= stats.committed
        assert calls["on_writeback"] > 0
        assert calls["on_flush"] == stats.flushes


class TestStageOrder:
    """Every cycle runs the documented phases, in order, exactly once."""

    def _phase_trace(self, core):
        probe = core.add_probe(RecordingProbe())
        core.run()
        return probe

    def _assert_order(self, probe, cycles):
        per_cycle = {}
        for kind, cycle, name in probe.of_kind("phase"):
            per_cycle.setdefault(cycle, []).append(name)
        assert len(per_cycle) == cycles, "phase events on every cycle"
        for cycle, names in per_cycle.items():
            assert tuple(names) == PHASE_ORDER, f"cycle {cycle}: {names}"

    def test_order_on_branchy_run_with_flushes(self, branchy_program):
        trace = run_program(branchy_program)
        core = Core(fast_test_config(scheme="atr", rf_size=28), trace)
        probe = self._phase_trace(core)
        self._assert_order(probe, core.cycle)
        flushes = probe.of_kind("flush")
        assert flushes, "branchy program must flush at least once"
        assert all(detail[0] == "branch" for _, _, detail in flushes)

    def test_order_on_interrupt_flush_cycles(self, branchy_program):
        trace = run_program(branchy_program)
        core = Core(fast_test_config(scheme="atr", rf_size=28), trace)
        controller = InterruptController(core, policy="flush",
                                         service_cycles=10)
        controller.schedule(at_cycle=40)
        probe = self._phase_trace(core)
        self._assert_order(probe, core.cycle)
        assert controller.stats.serviced == 1
        kinds = {detail[0] for _, _, detail in probe.of_kind("flush")}
        assert "interrupt" in kinds or controller.stats.flushed_instructions == 0

    def test_cycle_end_fires_once_per_cycle(self, loop_trace):
        core = Core(fast_test_config(), loop_trace)
        probe = core.add_probe(RecordingProbe())
        core.run()
        ends = probe.of_kind("cycle_end")
        assert len(ends) == core.cycle
        assert [c for _, c, _ in ends] == sorted(set(c for _, c, _ in ends))


class TestProbeLayer:
    def test_unprobed_core_has_no_manager(self, loop_trace):
        core = Core(fast_test_config(), loop_trace)
        assert core.state.probes is None
        core.run()
        assert core.state.probes is None

    def test_remove_restores_unprobed_fast_path(self, loop_trace):
        core = Core(fast_test_config(), loop_trace)
        probe = core.add_probe(RecordingProbe())
        assert core.state.probes is not None
        core.remove_probe(probe)
        assert core.state.probes is None

    def test_probes_observe_instruction_lifecycle(self, loop_trace):
        core = Core(fast_test_config(), loop_trace)
        probe = core.add_probe(RecordingProbe())
        stats = core.run()
        assert len(probe.of_kind("fetch")) == stats.fetched
        assert len(probe.of_kind("rename")) == stats.renamed
        assert len(probe.of_kind("commit")) == stats.committed
        # Every commit was preceded by rename/issue/writeback/precommit
        # of the same seq.
        committed = {seq for _, _, seq in probe.of_kind("commit")}
        for kind in ("rename_sources", "allocate", "rename", "issue",
                     "writeback", "precommit"):
            seen = {detail for _, _, detail in probe.of_kind(kind)}
            assert committed <= seen, f"{kind} missing for committed seqs"

    def test_probe_observation_does_not_perturb_timing(self, branchy_program):
        trace = run_program(branchy_program)
        plain = Core(fast_test_config(scheme="atr", rf_size=28), trace)
        probed = Core(fast_test_config(scheme="atr", rf_size=28), trace)
        probed.add_probe(RecordingProbe())
        assert plain.run().to_dict() == probed.run().to_dict()

    def test_claim_and_release_events_under_atr(self):
        src = "movi r1, 1\n" + "add r2, r1, r1\nadd r2, r2, r1\n" * 50 + "halt"
        trace = run_program(assemble(src, name="churn"))
        core = Core(fast_test_config(scheme="atr", rf_size=24), trace)
        probe = core.add_probe(RecordingProbe())
        core.run()
        assert len(probe.of_kind("claim")) == core.scheme.stats.atr_claims
        assert len(probe.of_kind("early_release")) == core.scheme.stats.atr_frees


class TestPredictorRegistry:
    def test_registry_names(self):
        assert set(PREDICTORS) == {
            "tage", "gshare", "bimodal", "always_taken", "always_not_taken"}

    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    def test_every_registered_predictor_builds_and_runs(self, name, loop_trace):
        core = Core(fast_test_config(predictor=name), loop_trace)
        stats = core.run()
        assert stats.committed == len(loop_trace)

    def test_unknown_predictor_fails_at_config_build(self):
        config = dataclasses.replace(CoreConfig(), predictor="perceptron")
        with pytest.raises(ValueError) as err:
            config.validate()
        message = str(err.value)
        assert "perceptron" in message
        for name in PREDICTORS:
            assert name in message, "error must list the valid names"

    def test_make_predictor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            make_predictor("nope")


class TestChaosThroughStages:
    """Chaos perturbations ride the stage interface, deterministically."""

    SPEC = ChaosSpec(benchmark="mcf", scheme="atr", rf_size=40,
                     instructions=1500, seed=7, intensity="medium")

    def test_chaos_replays_bit_identically(self):
        first = run_chaos_cell(self.SPEC)
        second = run_chaos_cell(self.SPEC)
        assert first.error is None
        assert first.stats.to_dict() == second.stats.to_dict()
        assert first.scheme_stats.to_dict() == second.scheme_stats.to_dict()

    def test_chaos_actually_perturbs(self):
        seeds = [ChaosSpec(benchmark="mcf", scheme="atr", rf_size=40,
                           instructions=1500, seed=s, intensity="high")
                 for s in range(3)]
        cycle_counts = {run_chaos_cell(s).stats.cycles for s in seeds}
        assert len(cycle_counts) > 1, "different seeds must differ in timing"

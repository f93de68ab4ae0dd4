"""Seeded fault injection: deterministic chaos, clean on correct schemes.

Chaos cells perturb timing only, so every release scheme must come back
with ``error is None`` and bit-identical results for the same spec — the
replay guarantee a failing campaign cell depends on.
"""

import pytest

from repro.harness import decode_cell_result, encode_cell_result
from repro.isa import Opcode
from repro.isa.semantics import MASK64
from repro.pipeline import InterruptController
from repro.rename.schemes import SCHEME_NAMES
from repro.validate import (
    ChaosSpec,
    CampaignReport,
    campaign_specs,
    run_campaign,
    run_chaos_cell,
)
from repro.validate import chaos


class TestChaosCells:
    @pytest.mark.parametrize("scheme", list(SCHEME_NAMES))
    def test_clean_on_all_schemes(self, scheme):
        spec = ChaosSpec(benchmark="mcf", scheme=scheme, rf_size=28,
                         instructions=500, seed=3, intensity="high")
        result = run_chaos_cell(spec)
        assert result.error is None, result.error
        assert result.stats.cycles > 0

    def test_same_spec_is_bit_identical(self):
        spec = ChaosSpec(benchmark="bwaves", scheme="atr", rf_size=30,
                         instructions=500, seed=7, intensity="high")
        first = run_chaos_cell(spec)
        second = run_chaos_cell(spec)
        assert encode_cell_result(first) == encode_cell_result(second)

    def test_different_seeds_perturb_differently(self):
        results = [
            run_chaos_cell(ChaosSpec(benchmark="mcf", scheme="atr", rf_size=28,
                                     instructions=500, seed=seed))
            for seed in range(4)
        ]
        assert all(r.error is None for r in results)
        # Seeds draw different configurations/faults, so cycle counts vary.
        assert len({r.stats.cycles for r in results}) > 1

    def test_flush_interrupts_squash_under_atr(self, monkeypatch):
        """This cell's flush-policy interrupts squash instructions past
        the precommit pointer while ATR claims are in flight, and stay
        clean; flushing without waiting for crossing claims to precommit
        trips ATR's flush walk here."""
        controllers = []

        class Recording(InterruptController):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                controllers.append(self)

        monkeypatch.setattr(chaos, "InterruptController", Recording)
        result = run_chaos_cell(ChaosSpec("508.namd_r", "atr", 40, 3000,
                                          seed=2, intensity="high"))
        assert result.error is None, result.error
        (controller,) = controllers
        assert controller.policy == "flush"
        assert controller.stats.flushed_instructions > 0

    def test_unknown_intensity_rejected(self):
        spec = ChaosSpec(benchmark="mcf", scheme="atr", rf_size=28,
                         instructions=100, seed=0, intensity="apocalyptic")
        with pytest.raises(ValueError, match="intensity"):
            run_chaos_cell(spec)
        with pytest.raises(ValueError, match="intensity"):
            campaign_specs(["mcf"], ["atr"], [28], [0], 100,
                           intensity="apocalyptic")


class TestErrorField:
    def test_error_round_trips_through_serialization(self):
        spec = ChaosSpec(benchmark="mcf", scheme="baseline", rf_size=28,
                         instructions=300, seed=1)
        result = run_chaos_cell(spec)
        result.error = "synthetic violation text"
        decoded = decode_cell_result(encode_cell_result(result))
        assert decoded.error == "synthetic violation text"

    def test_golden_mismatch_is_a_violation(self, monkeypatch):
        """A value the core computes wrong trips neither the sanitizer nor
        conservation; the run's closing golden check reports it in the
        cell's ``error``, as a violation rather than a harness failure."""
        import repro.pipeline.stages.execute as execute

        compute = execute.compute

        def add_off_by_one(instr, srcs):
            value = compute(instr, srcs)
            return (value + 1) & MASK64 if instr.opcode is Opcode.ADD else value

        monkeypatch.setattr(execute, "compute", add_off_by_one)
        result = run_chaos_cell(ChaosSpec(benchmark="mcf", scheme="atr",
                                          rf_size=28, instructions=500, seed=3))
        assert result.error is not None
        assert result.error.startswith("GoldenStateError under rf=")
        assert "505.mcf_r: committed state differs" in result.error

    def test_pre_error_payloads_still_decode(self):
        """Store entries persisted before the error field existed."""
        spec = ChaosSpec(benchmark="mcf", scheme="baseline", rf_size=28,
                         instructions=300, seed=1)
        payload = encode_cell_result(run_chaos_cell(spec))
        del payload["error"]
        assert decode_cell_result(payload).error is None


class TestCampaign:
    def test_small_campaign_is_clean_and_renders(self):
        specs = campaign_specs(
            benchmarks=["mcf"],
            schemes=["baseline", "atr"],
            rf_sizes=[28],
            seeds=[0, 1],
            instructions=400,
            intensity="low",
        )
        assert len(specs) == 4
        report = run_campaign(specs, jobs=1)
        assert isinstance(report, CampaignReport)
        assert report.ok
        assert report.clean == 4
        assert not report.violations
        rendered = report.render()
        assert "campaign: 4 cells, 4 clean" in rendered
        assert "atr" in rendered

    def test_report_separates_violations(self):
        specs = campaign_specs(["mcf"], ["atr"], [28], [0], 300)
        report = run_campaign(specs, jobs=1)
        # Forge a violation to exercise the reporting path.
        spec, result = next(iter(report.results.items()))
        result.error = "forged use-after-release"
        assert not report.ok
        assert report.violations == [(spec, "forged use-after-release")]
        assert "VIOLATION" in report.render()

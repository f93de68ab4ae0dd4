"""Experiment runner/report helpers not covered elsewhere."""

import pytest

from repro.experiments.runner import (
    clear_result_cache,
    default_fp_suite,
    default_instructions,
    default_int_suite,
    geomean,
    mean,
    region_report,
    run_cell,
    speedup,
    suite_speedup,
)
from repro.workloads import SPEC_FP, SPEC_INT


def test_default_suites_match_registry():
    assert tuple(default_int_suite()) == SPEC_INT
    assert tuple(default_fp_suite()) == SPEC_FP


def test_default_instructions_env(monkeypatch):
    """Scale comes from ``instructions=`` (``-n``), never the environment:
    only the figure-shape suite in ``benchmarks/`` reads
    ``REPRO_BENCH_INSTRUCTIONS``, and it passes the value explicitly."""
    monkeypatch.setenv("REPRO_BENCH_INSTRUCTIONS", "1234")
    assert default_instructions() == 5000


def test_region_report_cached():
    a = region_report("xz", 1000)
    b = region_report("xz", 1000)
    assert a is b


def test_suite_speedup_small():
    value = suite_speedup(["531.deepsjeng_r"], 64, "nonspec_er",
                          instructions=1500)
    assert -0.2 < value < 3.0


def test_clear_result_cache():
    region_report("xz", 1000)
    clear_result_cache()  # must not raise; next call recomputes
    region_report("xz", 1000)


def test_run_cell_warm_across_memo_clears(tmp_path, monkeypatch):
    """The persistent store survives what clear_result_cache drops."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_result_cache()
    first = run_cell("mcf", 64, "baseline", 900)
    clear_result_cache()
    second = run_cell("mcf", 64, "baseline", 900)
    assert second is not first  # decoded from disk, not the memo
    assert second.stats == first.stats
    clear_result_cache()


class TestAggregationSemantics:
    """Empty/degenerate aggregation is an error, never a silent 0.0."""

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError, match="empty"):
            mean([])

    def test_empty_geomean_raises(self):
        with pytest.raises(ValueError, match="empty"):
            geomean([])

    def test_zero_baseline_speedup_raises(self):
        with pytest.raises(ValueError, match="zero baseline"):
            speedup(1.0, 0.0)

    def test_empty_suite_speedup_raises(self):
        with pytest.raises(ValueError, match="empty benchmark list"):
            suite_speedup([], 64, "atr", instructions=900)

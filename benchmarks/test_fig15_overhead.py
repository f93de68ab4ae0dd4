"""Figure 15: RF size needed to stay within 3% of the 280-register
baseline, with McPAT-lite power/area deltas."""

from repro.experiments import fig15

from conftest import emit


def test_fig15_overhead(int_suite, instructions):
    result = fig15.run(benchmarks=int_suite, reference_rf=280, step=16,
                       instructions=instructions)
    emit(result)
    # Shape: every early-release scheme needs at most the baseline's
    # registers; combined needs the fewest (paper: 196 vs 204/212/280).
    assert result.required["atr"] <= result.required["baseline"]
    assert result.required["nonspec_er"] <= result.required["baseline"]
    assert result.required["combined"] <= min(
        result.required["atr"], result.required["nonspec_er"]
    ) + 16
    # Smaller RF saves area and power relative to the reference.
    assert result.area_delta["combined"] <= 0.001

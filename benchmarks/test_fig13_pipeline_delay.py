"""Figure 13: effect of pipelining the redefinition logic by 1-2 cycles."""

from repro.experiments import fig13

from conftest import emit


def test_fig13_pipeline_delay(int_suite, instructions):
    result = fig13.run(benchmarks=int_suite, rf_size=64, instructions=instructions)
    emit(result)
    # Paper: negligible impact of delaying the redefinition signal.
    assert result.max_degradation() < 0.02

"""Figure 12: consumers per atomic region distribution."""

from repro.experiments import fig12

from conftest import emit


def test_fig12_consumers(int_suite, fp_suite, instructions):
    result = fig12.run(benchmarks=int_suite + fp_suite, instructions=instructions)
    emit(result)
    # Paper: most workloads average 1-2 consumers per atomic region
    # (enabling the 3-bit counter); namd is the heavy outlier.
    means = {b: m for b, m in result.means.items()}
    typical = [m for b, m in means.items() if "namd" not in b]
    assert max(typical) <= 4.0
    if any("namd" in b for b in means):
        namd = next(m for b, m in means.items() if "namd" in b)
        assert namd >= max(typical) - 0.5

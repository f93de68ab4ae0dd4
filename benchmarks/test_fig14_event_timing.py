"""Figure 14: rename -> redefine/consume/commit distances in atomic regions."""

from repro.experiments import fig14

from conftest import emit


def test_fig14_event_timing(int_suite, fp_suite, instructions):
    result = fig14.run(benchmarks=int_suite + fp_suite, instructions=instructions)
    emit(result)
    populated = [t for t in result.timings.values() if t.chains]
    assert populated
    # Paper: redefinition (at rename) happens well before the last
    # consumption (data-dependent), which precedes the redefiner's commit.
    for timing in populated:
        assert timing.rename_to_redefine <= timing.rename_to_consume + 1e-9
        assert timing.rename_to_consume <= timing.rename_to_commit + 1e-9

"""Figure 6: atomic register ratio (non-branch / non-except / atomic)."""

from repro.experiments import expectations, fig06

from conftest import emit


def test_fig06_atomic_ratio(int_suite, fp_suite, instructions):
    result = fig06.run(int_benchmarks=int_suite, fp_benchmarks=fp_suite,
                       instructions=instructions)
    emit(result)
    # Paper: 17.04% int / 13.14% fp of allocations are atomic; our kernels
    # land in the same band.
    assert 0.05 < result.average("int") < 0.60
    assert 0.05 < result.average("fp") < 0.40

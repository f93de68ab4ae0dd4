"""Figure 11: ATR speedup over baseline across register file sizes."""

from repro.experiments import fig11

from conftest import emit


def test_fig11_rf_sensitivity(int_suite, fp_suite, instructions):
    result = fig11.run(int_benchmarks=int_suite, fp_benchmarks=fp_suite,
                       sizes=(64, 96, 128, 160, 192, 224, 256, 280),
                       instructions=instructions)
    emit(result)
    # Shape: the gain at the smallest RF exceeds the gain at the largest
    # (paper: 5.7% at 64 vs 0.9% at 280 for int).
    for which in ("int", "fp"):
        assert result.average(which, 64) >= result.average(which, 280) - 0.005

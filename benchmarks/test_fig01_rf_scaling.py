"""Figure 1: baseline IPC vs register file size (normalized to infinite)."""

from repro.experiments import fig01

from conftest import emit


def test_fig01_rf_scaling(int_suite, instructions):
    result = fig01.run(benchmarks=int_suite, instructions=instructions,
                       sizes=(64, 96, 128, 160, 192, 224, 256, 280))
    emit(result)
    low, high = result.average[64], result.average[280]
    # Shape: IPC rises with registers and 280 is near-ideal (paper: 37.7%
    # of ideal at 64, within 5% at 280).
    assert low < high
    assert high > 0.90

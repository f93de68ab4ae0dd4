"""Figure 10: scheme speedups over baseline at 64 and 224 registers."""

from repro.experiments import fig10

from conftest import emit


def test_fig10_speedup(int_suite, fp_suite, instructions):
    result = fig10.run(int_benchmarks=int_suite, fp_benchmarks=fp_suite,
                       sizes=(64, 224), instructions=instructions)
    emit(result)
    # Shape checks mirroring the paper's ordering at 64 registers:
    # every scheme helps on average, nonspec-ER > ATR on the int suite,
    # combined >= max(atr, nonspec) per suite, and gains shrink at 224.
    for which in ("int", "fp"):
        atr = result.average(which, 64, "atr")
        nonspec = result.average(which, 64, "nonspec_er")
        combined = result.average(which, 64, "combined")
        assert atr > -0.01
        assert nonspec > -0.01
        assert combined >= min(atr, nonspec) - 0.01
        assert result.average(which, 224, "atr") <= atr + 0.02

"""Figure-shape test configuration.

Each test regenerates one of the paper's figures, prints the same
rows/series the paper reports, and asserts the figure's shape.  These
are plain pytest tests: they check the simulated machine, not host time
(``perfbench/`` measures that).

Scale knobs (environment variables, read here and passed to each
figure's ``run()`` explicitly):

* ``REPRO_BENCH_INSTRUCTIONS`` — dynamic instructions per benchmark
  (default 5000; the paper uses 10M-instruction SimPoints in a C++
  simulator — raise this for tighter numbers at proportional cost).
* ``REPRO_BENCH_SUITE`` — ``full`` (default) or ``quick`` (2 int + 2 fp
  benchmarks, for CI-speed runs).
"""

import os

import pytest

QUICK_INT = ["505.mcf_r", "531.deepsjeng_r"]
QUICK_FP = ["503.bwaves_r", "508.namd_r"]


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_SUITE", "full") == "quick"


@pytest.fixture(scope="session")
def int_suite():
    from repro.workloads import SPEC_INT

    return QUICK_INT if _quick() else list(SPEC_INT)


@pytest.fixture(scope="session")
def fp_suite():
    from repro.workloads import SPEC_FP

    return QUICK_FP if _quick() else list(SPEC_FP)


@pytest.fixture(scope="session")
def instructions():
    return int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "5000"))


def emit(result) -> None:
    """Print a figure's rendering under the test's output."""
    print()
    print(result.render())

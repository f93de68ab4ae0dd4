"""Section 4.4: synthesis of the bulk no-early-release logic and the
consumer-counter storage overheads."""

import pytest

from repro.experiments import expectations, sec44

from conftest import emit


def test_sec44_hardware():
    result = sec44.run()
    emit(result)
    # Paper: 2,960 gates; ours lands within 25%.
    assert abs(result.timing.gates - expectations.SEC44_GATES) / expectations.SEC44_GATES < 0.25
    # Un-pipelined frequency in the GHz regime; 2 extra stages clear 4 GHz.
    assert result.timing.max_frequency_ghz > 1.5
    assert result.timing.frequency_with_pipelining(3) > 4.0
    assert result.counter_overhead_int == pytest.approx(3 / 64)
    assert result.counter_overhead_vec == pytest.approx(3 / 256)

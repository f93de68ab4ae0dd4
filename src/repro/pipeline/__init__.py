"""Cycle-level out-of-order core (Golden-Cove-like, paper Table 1).

The package is organised as a staged pipeline: ``state`` holds every
mutable field (:class:`PipelineState`), ``stages`` holds one module per
per-cycle phase, ``probes`` is the zero-cost-when-off observer layer,
and ``core`` is the thin orchestrator tying them together.
"""

from .config import CORE_CONFIGS, CoreConfig, core_config, fast_test_config, golden_cove_config
from .core import Core, DeadlockError, GoldenStateError
from .interrupts import InterruptController, InterruptStats
from .probes import (
    PHASE_ORDER,
    PROBE_EVENTS,
    Probe,
    ProbeManager,
    RecordingProbe,
)
from .rob import ROBEntry, ReorderBuffer
from .state import PipelineState, StoreRecord, build_state
from .stats import RegisterEventLog, RegisterLifetime, SimStats, TimelineProbe
from .warmup import WarmupState, fast_forward

__all__ = [
    "CoreConfig", "golden_cove_config", "fast_test_config",
    "CORE_CONFIGS", "core_config",
    "Core", "DeadlockError", "GoldenStateError",
    "InterruptController", "InterruptStats",
    "ReorderBuffer", "ROBEntry",
    "SimStats", "RegisterEventLog", "RegisterLifetime", "TimelineProbe",
    "PipelineState", "StoreRecord", "build_state",
    "Probe", "ProbeManager", "RecordingProbe",
    "PROBE_EVENTS", "PHASE_ORDER",
    "WarmupState", "fast_forward",
]

"""Functional frontend: golden-model emulator, trace capture, wrong path."""

from .emulator import (
    ArchState,
    EmulationError,
    Emulator,
    canonical_memory,
    final_state,
    memory_image,
    run_program,
)
from .trace import DynamicInstruction, Trace
from .wrongpath import WrongPathSupplier

__all__ = [
    "Emulator", "ArchState", "EmulationError", "run_program", "final_state",
    "canonical_memory", "memory_image",
    "DynamicInstruction", "Trace",
    "WrongPathSupplier",
]

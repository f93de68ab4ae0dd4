"""Branch predictor interfaces.

The fetch unit consults a :class:`DirectionPredictor` for conditional
branches, a :class:`TargetPredictor` (BTB / indirect predictor / RAS
composite) for targets, and a confidence estimate used to decide which
branches get an SRT checkpoint (paper section 4.2.1 checkpoints only
low-confidence branches).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional


@dataclass
class Prediction:
    """Outcome of predicting one control-flow instruction."""

    taken: bool
    target: Optional[int]
    confident: bool = True


class DirectionPredictor(abc.ABC):
    """Taken / not-taken predictor for conditional branches."""

    @abc.abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at *pc*."""

    @abc.abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train with the trace direction (called at fetch, right after
        :meth:`predict` for the same correct-path branch)."""

    def confidence(self, pc: int) -> bool:
        """True if the prediction is high-confidence (default: always)."""
        return True

    def on_mispredict(self, pc: int, taken: bool) -> None:
        """Hook for global-history repair on a misprediction."""


class TargetPredictor(abc.ABC):
    """Predicts targets of taken control flow."""

    @abc.abstractmethod
    def predict(self, pc: int) -> Optional[int]:
        """Predicted target for *pc*, or ``None`` on a miss."""

    @abc.abstractmethod
    def update(self, pc: int, target: int) -> None:
        """Install / reinforce the resolved target."""


def saturate(value: int, delta: int, lo: int, hi: int) -> int:
    """Saturating counter update."""
    return max(lo, min(hi, value + delta))

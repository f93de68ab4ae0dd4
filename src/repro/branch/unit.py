"""The composite branch unit used by the fetch stage.

Combines a direction predictor, BTB, indirect predictor, and return
address stack into the single ``predict``/``resolve`` interface the
pipeline consumes.  Both happen at fetch: ``FetchStage.predict`` calls
``resolve`` with the trace outcome right after ``predict`` for every
correct-path branch (DESIGN.md, "Immediate predictor update");
wrong-path branches are predicted but train nothing, as in Scarab's
trace-based mode.  Because no other branch trains in between, the global
history a branch was predicted with is the one it trains with, which is
what lets TAGE reuse its lookup for the update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..isa import Instruction, OpClass
from .interface import DirectionPredictor, Prediction
from .simple import AlwaysNotTaken
from .targets import BranchTargetBuffer, IndirectTargetPredictor, ReturnAddressStack
from .tage import Tage


@dataclass
class BranchStats:
    """Aggregate prediction accuracy counters."""

    conditional: int = 0
    conditional_mispredicted: int = 0
    indirect: int = 0
    indirect_mispredicted: int = 0

    @property
    def mpki_numerator(self) -> int:
        return self.conditional_mispredicted + self.indirect_mispredicted

    def accuracy(self) -> float:
        total = self.conditional + self.indirect
        if not total:
            return 1.0
        return 1.0 - self.mpki_numerator / total


class BranchUnit:
    """Fetch-facing facade over all the predictors."""

    def __init__(
        self,
        direction: Optional[DirectionPredictor] = None,
        btb_entries: int = 12288,
        indirect_entries: int = 3072,
        ras_depth: int = 32,
    ):
        self.direction = direction if direction is not None else Tage()
        self.btb = BranchTargetBuffer(entries=btb_entries)
        self.indirect = IndirectTargetPredictor(entries=indirect_entries)
        self.ras = ReturnAddressStack(depth=ras_depth)
        self.stats = BranchStats()

    def predict(self, pc: int, instr: Instruction) -> Prediction:
        """Predict the control flow of *instr* at *pc* (called at fetch).

        Maintains the RAS speculatively (push on call, pop on return), as
        the hardware does.
        """
        op_class = instr.op_class
        if op_class is OpClass.BRANCH:
            taken = self.direction.predict(pc)
            confident = self.direction.confidence(pc)
            target = instr.target if taken else pc + 1
            return Prediction(taken=taken, target=target, confident=confident)
        if op_class is OpClass.JUMP:
            return Prediction(taken=True, target=instr.target)
        if op_class is OpClass.CALL:
            self.ras.push(pc + 1)
            return Prediction(taken=True, target=instr.target)
        if op_class is OpClass.RETURN:
            target = self.ras.pop()
            if target is None:
                target = self.indirect.predict(pc)
            return Prediction(taken=True, target=target, confident=target is not None)
        if op_class is OpClass.JUMP_INDIRECT:
            target = self.indirect.predict(pc)
            return Prediction(taken=True, target=target, confident=target is not None)
        return Prediction(taken=False, target=pc + 1)

    def resolve(
        self, pc: int, instr: Instruction, predicted: Prediction, taken: bool, target: int
    ) -> bool:
        """Train predictors with the actual outcome; return True on a
        misprediction.

        Called at fetch, immediately after :meth:`predict` for the same
        correct-path branch (the trace already holds its outcome); the
        pipeline still pays the misprediction when the branch executes.
        """
        op_class = instr.op_class
        mispredicted = False
        if op_class is OpClass.BRANCH:
            self.stats.conditional += 1
            mispredicted = predicted.taken != taken or (taken and predicted.target != target)
            if mispredicted:
                self.stats.conditional_mispredicted += 1
                self.direction.on_mispredict(pc, taken)
            self.direction.update(pc, taken)
            if taken:
                self.btb.update(pc, target)
        elif op_class in (OpClass.JUMP_INDIRECT, OpClass.RETURN):
            self.stats.indirect += 1
            mispredicted = predicted.target != target
            if mispredicted:
                self.stats.indirect_mispredicted += 1
            self.indirect.update(pc, target)
        elif op_class in (OpClass.JUMP, OpClass.CALL):
            mispredicted = predicted.target != target
            self.btb.update(pc, target)
        return mispredicted

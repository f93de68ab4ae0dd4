"""Branch prediction: TAGE-SC-L-lite, bimodal, gshare, BTB, indirect, RAS."""

from .interface import DirectionPredictor, Prediction, TargetPredictor, saturate
from .simple import AlwaysNotTaken, AlwaysTaken, Bimodal, GShare, Oracle
from .tage import LoopPredictor, Tage
from .targets import BranchTargetBuffer, IndirectTargetPredictor, ReturnAddressStack
from .unit import BranchStats, BranchUnit
from ..registry import Registry

#: Direction-predictor registry: config name -> zero-arg factory.  Single
#: source of truth shared by CoreConfig.validate() (fail-fast on unknown
#: names), make_predictor() (which fast_forward calls to build every
#: core's predictor), and ``repro list predictors``; plugin predictors
#: join through the discovery hook
#: (:mod:`repro.registry`).  Mapping-shaped, so dict-era call sites
#: (``name in PREDICTORS``, ``sorted(PREDICTORS)``, ``PREDICTORS[name]``)
#: are unchanged.
PREDICTORS: Registry = Registry(
    "predictor", doc="branch direction predictors")
PREDICTORS.register("tage", Tage)
PREDICTORS.register("gshare", GShare)
PREDICTORS.register("bimodal", Bimodal)
PREDICTORS.register("always_taken", AlwaysTaken)
PREDICTORS.register("always_not_taken", AlwaysNotTaken)


def make_predictor(name: str) -> DirectionPredictor:
    """Build a direction predictor from the shared registry."""
    try:
        factory = PREDICTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r}; valid: {', '.join(sorted(PREDICTORS))}"
        ) from None
    return factory()


__all__ = [
    "PREDICTORS", "make_predictor",
    "DirectionPredictor", "TargetPredictor", "Prediction", "saturate",
    "AlwaysTaken", "AlwaysNotTaken", "Oracle", "Bimodal", "GShare",
    "Tage", "LoopPredictor",
    "BranchTargetBuffer", "IndirectTargetPredictor", "ReturnAddressStack",
    "BranchUnit", "BranchStats",
]

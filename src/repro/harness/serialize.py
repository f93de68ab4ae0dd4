"""Result serialization: everything a worker returns crosses this layer.

One encoding serves two transports — the pipe between a worker process
and the scheduler, and the JSON files of the persistent store — so a
result decoded from a warm cache is indistinguishable from one computed
in-process.  Floats survive exactly (JSON round-trips Python floats via
``repr``), so warm-cache figure numbers are bit-identical to cold runs.
"""

from __future__ import annotations

from typing import Dict

from ..analysis import RegionReport
from ..pipeline import SimStats
from ..pipeline.stats import RegisterLifetime
from ..rename.schemes import SchemeStats
from .jobs import CellResult


def encode_cell_result(result: CellResult) -> Dict:
    return {
        "benchmark": result.benchmark,
        "scheme": result.scheme,
        "rf_size": result.rf_size,
        "instructions": result.instructions,
        "stats": result.stats.to_dict(),
        "scheme_stats": result.scheme_stats.to_dict(),
        "event_records": (
            None if result.event_records is None
            else [record.to_dict() for record in result.event_records]
        ),
        "error": result.error,
        "tier_info": result.tier_info,
    }


def decode_cell_result(data: Dict) -> CellResult:
    return CellResult(
        benchmark=data["benchmark"],
        scheme=data["scheme"],
        rf_size=data["rf_size"],
        instructions=data["instructions"],
        stats=SimStats.from_dict(data["stats"]),
        scheme_stats=SchemeStats.from_dict(data["scheme_stats"]),
        event_records=(
            None if data["event_records"] is None
            else [RegisterLifetime.from_dict(r) for r in data["event_records"]]
        ),
        # .get(): results persisted before the error/tier_info fields
        # existed.
        error=data.get("error"),
        tier_info=data.get("tier_info"),
    )


def encode_result(result) -> Dict:
    """Wrap any executor result in a typed envelope.

    Unknown types pass through as-is (``kind: raw``) so tests can inject
    custom executors; they must then be JSON-serializable themselves to
    reach the persistent store.
    """
    if isinstance(result, CellResult):
        return {"kind": "cell", "data": encode_cell_result(result)}
    if isinstance(result, RegionReport):
        return {"kind": "regions", "data": result.to_dict()}
    return {"kind": "raw", "data": result}


def decode_result(payload: Dict):
    kind = payload["kind"]
    if kind == "cell":
        return decode_cell_result(payload["data"])
    if kind == "regions":
        return RegionReport.from_dict(payload["data"])
    if kind == "raw":
        return payload["data"]
    raise ValueError(f"unknown result kind {kind!r}")

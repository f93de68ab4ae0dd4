"""Static register pressure and a sound ATR opportunity upper bound.

ATR's benefit is bounded by how many def→redef windows are provably
atomic: the scheme claims a displaced mapping at the redefiner's rename
and may free it early only inside such a window.  Both facts are static
properties of the program text (see :mod:`repro.staticcheck.regions`),
so the text also bounds the *dynamic* opportunity:

    For each rename allocation at pc ``p``, at most ``weight(p)``
    new claims can be opened, where ``weight(p)`` is the number of
    distinct destination registers of ``p`` that own a statically
    atomic window ending (redefining) at ``p``.

Every runtime claim names a displaced mapping of one destination
register of the renaming instruction, and the scheme claims only
windows that are atomic along the renamed stream — which, breakers
being exactly the stream-forking instructions, is the deterministic
static chain.  Summing ``weight`` over the allocation events of a run
therefore yields a hard upper bound on claims, and a fortiori on
claimed early releases.  :class:`StaticBoundProbe` accumulates that sum
live and flags any excess: a violated bound is a simulator bug, exactly
like :class:`repro.staticcheck.oracle.AtrSoundnessProbe`'s contract —
the two probes ride the same chaos cells.

:func:`analyze_pressure` also reports classic static live-range
pressure (per-pc live counts against each physical file) — the other
half of "how much can early release help": windows only matter when the
file is actually under pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..isa import Program, RegClass
from ..pipeline.probes import Probe
from .dataflow import DataflowResult, analyze_dataflow
from .regions import StaticRegionReport, StaticWindow, analyze_regions


@dataclass(frozen=True)
class BoundViolation:
    """Dynamic ATR activity exceeding the static opportunity bound."""

    kind: str  # "claims" | "releases"
    observed: int
    bound: int
    cycle: int

    def __str__(self) -> str:
        return (f"static ATR bound violated at cycle {self.cycle}: "
                f"{self.observed} {self.kind} > bound {self.bound}")


@dataclass
class PressureReport:
    """Static pressure + early-release opportunity of one program."""

    program: Program
    dataflow: DataflowResult
    regions: StaticRegionReport
    #: Live register count after each pc, per physical file.
    live_int: List[int] = field(default_factory=list)
    live_vec: List[int] = field(default_factory=list)
    #: pc -> number of distinct dest registers with a statically atomic
    #: window redefined at that pc (the per-allocation claim bound).
    release_weight: Dict[int, int] = field(default_factory=dict)

    @property
    def atomic_windows(self) -> List[StaticWindow]:
        """The statically-provable early-release windows."""
        return self.regions.atomic_windows()

    def max_pressure(self, file_cls: RegClass = RegClass.INT) -> int:
        live = self.live_vec if file_cls is RegClass.VEC else self.live_int
        return max(live, default=0)

    def mean_pressure(self, file_cls: RegClass = RegClass.INT) -> float:
        live = self.live_vec if file_cls is RegClass.VEC else self.live_int
        return sum(live) / len(live) if live else 0.0

    def trace_bound(self, pcs: Iterable[int]) -> int:
        """Static claim bound for one concrete pc stream (e.g. the
        functional trace): the sum of ``release_weight`` over it."""
        weight = self.release_weight
        return sum(weight.get(pc, 0) for pc in pcs)

    def counts(self) -> Dict[str, object]:
        return {
            "atomic_windows": len(self.atomic_windows),
            "weighted_pcs": len(self.release_weight),
            "static_weight": sum(self.release_weight.values()),
            "max_int_pressure": self.max_pressure(RegClass.INT),
            "max_vec_pressure": self.max_pressure(RegClass.VEC),
            "mean_int_pressure": round(self.mean_pressure(RegClass.INT), 2),
        }


def analyze_pressure(program: Program,
                     dataflow: Optional[DataflowResult] = None,
                     regions: Optional[StaticRegionReport] = None
                     ) -> PressureReport:
    """Compute live-range pressure and the static release-weight map."""
    if dataflow is None:
        dataflow = analyze_dataflow(program)
    if regions is None:
        regions = analyze_regions(program)
    live_int: List[int] = []
    live_vec: List[int] = []
    for pc in range(len(program.instructions)):
        live = dataflow.live_after(pc)
        live_int.append(sum(1 for reg in live if reg.cls.file is RegClass.INT))
        live_vec.append(sum(1 for reg in live if reg.cls.file is RegClass.VEC))
    by_pc: Dict[int, set] = {}
    for window in regions.atomic_windows():
        by_pc.setdefault(window.redef_pc, set()).add(window.reg)
    weight = {pc: len(regs) for pc, regs in by_pc.items()}
    return PressureReport(program=program, dataflow=dataflow,
                          regions=regions, live_int=live_int,
                          live_vec=live_vec, release_weight=weight)


class StaticBoundProbe(Probe):
    """Probe asserting dynamic ATR activity never exceeds the static
    opportunity bound.

    The bound accumulates ``release_weight`` over the *actual* rename
    allocation events of the run (re-renamed instructions after a flush
    contribute again, so the bound is valid for whatever stream the
    pipeline really renamed).  Claims fire in ``post_rename`` of the
    same entry, strictly after its allocate event, so the running
    comparison is exact at every instant.  A pure event-layer observer:
    attach with ``core.add_probe``.
    """

    def __init__(self, program: Program,
                 report: Optional[PressureReport] = None):
        self.program = program
        self.report = report if report is not None else analyze_pressure(program)
        self._weight = self.report.release_weight
        self.bound = 0
        self.claims_seen = 0
        self.claimed_releases = 0
        self.violations: List[BoundViolation] = []
        # ptags with an outstanding claim (claimed at rename, not yet
        # released/reallocated) so unclaimed (nonspec-ER) releases are
        # not counted against the ATR bound.
        self._claimed: set = set()

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- event handlers ----------------------------------------------------
    def on_allocate(self, entry, cycle: int) -> None:
        self.bound += self._weight.get(entry.pc, 0)
        for record in entry.dests:
            # A recycled ptag starts a fresh lifetime.
            self._claimed.discard((record.file, record.new_ptag))

    def on_claim(self, file_cls, ptag: int, cycle: int) -> None:
        self.claims_seen += 1
        self._claimed.add((file_cls, ptag))
        if self.claims_seen > self.bound:
            self.violations.append(BoundViolation(
                "claims", self.claims_seen, self.bound, cycle))

    def on_early_release(self, file_cls, ptag: int, cycle: int) -> None:
        key = (file_cls, ptag)
        if key not in self._claimed:
            return
        self._claimed.discard(key)
        self.claimed_releases += 1
        if self.claimed_releases > self.bound:
            self.violations.append(BoundViolation(
                "releases", self.claimed_releases, self.bound, cycle))

    def summary(self) -> str:
        return (f"{self.claimed_releases} claimed early releases, "
                f"{self.claims_seen} claims, static bound {self.bound}, "
                f"{len(self.violations)} violations")

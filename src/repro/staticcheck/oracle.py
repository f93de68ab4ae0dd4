"""Differential soundness oracle: pipeline releases vs. static proof.

The runtime ATR scheme claims a previous physical-register mapping at
rename time and may then free it *out of order*.  The claim is legal
exactly when the def→redef window is an atomic region, and — because
direct ``JMP``/``CALL`` never mispredict in this machine while every
stream-forking instruction is itself a region breaker — every window the
runtime can legally claim lies on the deterministic static chain that
:func:`repro.staticcheck.regions.analyze_regions` enumerates.  The probe
below therefore checks, for every early release the scheme performs:

* the released ptag carries an outstanding **claim** (the ``claim``
  probe event names ATR takeovers; the combined scheme's nonspec-ER
  releases are unclaimed and are ignored — under the pure ``atr``
  scheme an unclaimed early release is itself a violation);
* the claim's ``(file, SRT slot, def_pc, redef_pc)`` is a
  statically-proven **atomic** window of the program (initial SRT
  mappings have ``def_pc = None`` and match the virtual entry windows).

Claim records follow ptag lifetimes through flushes: a record survives
until its ptag is released, re-claimed, or reallocated (``on_allocate``
drops stale state), which keeps attribution exact across the flush
walk's drain of in-flight redefinition signals.

``compare_branch_free`` is the second oracle leg: on branch-free,
single-execution programs the static chain walk and the dynamic
:func:`~repro.analysis.regions.classify_regions` must agree window for
window — location, consumer count, and classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..frontend import Trace, run_program
from ..isa import Program, RegClass
from ..pipeline import Core
from ..pipeline.config import fast_test_config
from ..pipeline.probes import Probe
from .regions import StaticRegionReport, analyze_regions

#: Schemes that perform ATR claims (and so can be oracle-checked).
ATR_SCHEMES = ("atr", "combined")


@dataclass(frozen=True)
class AtrViolation:
    """One unsound early release observed by the probe."""

    file: RegClass
    ptag: int
    slot: Optional[int]
    def_pc: Optional[int]
    redef_pc: Optional[int]
    cycle: int
    reason: str

    def __str__(self) -> str:
        where = (f"slot {self.slot} def@{self.def_pc} redef@{self.redef_pc}"
                 if self.slot is not None else "no claim outstanding")
        return (f"unsound ATR release of {self.file.value} p{self.ptag} "
                f"at cycle {self.cycle} ({where}): {self.reason}")


class AtrSoundnessProbe(Probe):
    """Probe asserting every ATR release matches a static atomic window.

    Pure event-layer observer: attach with ``core.add_probe`` — no core
    or scheme internals are touched.
    """

    def __init__(self, program: Program,
                 report: Optional[StaticRegionReport] = None,
                 strict_unclaimed: bool = False):
        self.program = program
        self.report = report if report is not None else analyze_regions(program)
        self.atomic_keys: FrozenSet[Tuple] = self.report.atomic_keys()
        #: Under the pure ``atr`` scheme every early release must carry a
        #: claim; the combined scheme also early-releases via nonspec-ER.
        self.strict_unclaimed = strict_unclaimed
        self.violations: List[AtrViolation] = []
        self.releases_seen = 0
        self.atr_releases = 0
        self.claims_seen = 0
        # ptag -> pc of the instruction that allocated it (def site).
        self._def_pc: Dict[Tuple[RegClass, int], int] = {}
        # Potential claims of the entry being renamed right now:
        # displaced prev ptag -> (SRT slot, redefiner pc).
        self._pending: Dict[Tuple[RegClass, int], Tuple[int, int]] = {}
        # Outstanding claims: ptag -> (slot, def_pc, redef_pc).
        self._claims: Dict[Tuple[RegClass, int],
                           Tuple[int, Optional[int], int]] = {}

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- event handlers ----------------------------------------------------
    def on_allocate(self, entry, cycle: int) -> None:
        self._pending = {}
        pc = entry.pc
        for record in entry.dests:
            new_key = (record.file, record.new_ptag)
            # A recycled ptag starts a fresh lifetime: any state recorded
            # for a previous owner is stale.
            self._claims.pop(new_key, None)
            self._def_pc[new_key] = pc
            self._pending[(record.file, record.prev_ptag)] = (record.slot, pc)

    def on_claim(self, file_cls, ptag: int, cycle: int) -> None:
        self.claims_seen += 1
        key = (file_cls, ptag)
        pending = self._pending.get(key)
        if pending is None:
            # Cannot happen with the documented rename event order; treat
            # as a violation rather than crashing the run.
            self.violations.append(AtrViolation(
                file_cls, ptag, None, None, None, cycle,
                "claim event outside the allocate/post-rename window"))
            return
        slot, redef_pc = pending
        self._claims[key] = (slot, self._def_pc.get(key), redef_pc)

    def on_early_release(self, file_cls, ptag: int, cycle: int) -> None:
        self.releases_seen += 1
        key = (file_cls, ptag)
        claim = self._claims.pop(key, None)
        if claim is None:
            if self.strict_unclaimed:
                self.violations.append(AtrViolation(
                    file_cls, ptag, None, None, None, cycle,
                    "early release without an outstanding ATR claim"))
            return
        self.atr_releases += 1
        slot, def_pc, redef_pc = claim
        if (file_cls, slot, def_pc, redef_pc) not in self.atomic_keys:
            self.violations.append(AtrViolation(
                file_cls, ptag, slot, def_pc, redef_pc, cycle,
                "window is not a statically-proven atomic region"))

    def summary(self) -> str:
        return (f"{self.releases_seen} early releases "
                f"({self.atr_releases} ATR-claimed, {self.claims_seen} claims), "
                f"{len(self.atomic_keys)} static atomic windows, "
                f"{len(self.violations)} violations")


@dataclass
class OracleReport:
    """Outcome of one differential run."""

    name: str
    scheme: str
    releases_seen: int
    atr_releases: int
    claims_seen: int
    static_atomic: int
    violations: List[AtrViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        lines = [f"{self.name}/{self.scheme}: {status} — "
                 f"{self.atr_releases}/{self.releases_seen} releases "
                 f"ATR-claimed, {self.static_atomic} static atomic windows"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def check_trace(trace: Trace, scheme: str = "atr", rf_size: int = 48,
                redefine_delay: int = 0, config=None,
                report: Optional[StaticRegionReport] = None) -> OracleReport:
    """Run *trace* through the pipeline with the oracle probe attached."""
    if scheme not in ATR_SCHEMES:
        raise ValueError(f"scheme {scheme!r} performs no ATR claims; "
                         f"expected one of {ATR_SCHEMES}")
    if config is None:
        config = fast_test_config(rf_size=rf_size, scheme=scheme,
                                  redefine_delay=redefine_delay)
    core = Core(config, trace)
    probe = AtrSoundnessProbe(trace.program, report=report,
                              strict_unclaimed=(scheme == "atr"))
    core.add_probe(probe)
    core.run()
    return OracleReport(
        name=trace.name,
        scheme=scheme,
        releases_seen=probe.releases_seen,
        atr_releases=probe.atr_releases,
        claims_seen=probe.claims_seen,
        static_atomic=len(probe.atomic_keys),
        violations=list(probe.violations),
    )


def check_benchmark(name: str, instructions: int = 1500,
                    schemes: Tuple[str, ...] = ATR_SCHEMES,
                    rf_size: int = 48,
                    redefine_delay: int = 0) -> List[OracleReport]:
    """Oracle-check one workload kernel under each ATR scheme."""
    from ..workloads import build_trace
    trace = build_trace(name, instructions)
    report = analyze_regions(trace.program)
    return [check_trace(trace, scheme=scheme, rf_size=rf_size,
                        redefine_delay=redefine_delay, report=report)
            for scheme in schemes]


def compare_branch_free(program: Program,
                        max_instructions: int = 200_000) -> Dict[str, Dict]:
    """Static-vs-dynamic window comparison on a branch-free program.

    Requires a program with no region-breaking control flow and no pc
    executed twice (so each static def site maps to one dynamic chain);
    raises ``ValueError`` otherwise.  Returns the two window sets keyed
    by ``(file, slot, def_pc, redef_pc)`` with value
    ``(consumers, non_branch, non_except)`` — equal iff the static pass
    is exact, which :func:`branch_free_counts_match` asserts.
    """
    from ..analysis.regions import classify_regions

    for pc, instr in enumerate(program.instructions):
        if instr.breaks_region_control:
            raise ValueError(
                f"program has region-breaking control at pc {pc}: {instr}")
    trace = run_program(program, max_instructions=max_instructions)
    if not trace.entries or not trace.entries[-1].instr.is_halt:
        raise ValueError("program did not halt within the instruction limit")
    executed = [entry.pc for entry in trace.entries]
    if len(executed) != len(set(executed)):
        raise ValueError("program executes a pc more than once "
                         "(revisits make static windows ambiguous)")

    pc_of_seq = executed
    dynamic: Dict[Tuple, Tuple] = {}
    for chain in classify_regions(trace).chains:
        if chain.redefine_seq is None:
            continue
        key = (chain.file, chain.slot,
               pc_of_seq[chain.alloc_seq], pc_of_seq[chain.redefine_seq])
        dynamic[key] = (chain.consumers, chain.non_branch, chain.non_except)

    static: Dict[Tuple, Tuple] = {}
    for window in analyze_regions(program).closed_windows():
        if window.def_pc is None:
            continue  # virtual entry windows have no dynamic chain
        static[window.key] = (window.consumers, window.non_branch,
                              window.non_except)
    # Static windows whose def never executed (dead code past HALT) have
    # no dynamic counterpart.
    static = {key: value for key, value in static.items()
              if key[2] in set(executed)}
    return {"static": static, "dynamic": dynamic}


def branch_free_counts_match(program: Program,
                             max_instructions: int = 200_000) -> bool:
    """True iff static and dynamic windows agree exactly (see above)."""
    sides = compare_branch_free(program, max_instructions=max_instructions)
    return sides["static"] == sides["dynamic"]

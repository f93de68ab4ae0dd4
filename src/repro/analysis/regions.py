"""Trace-level atomic-region classification (paper section 3.2 / Figure 6).

Walks a dynamic trace in program order and classifies every register
allocation chain — from the instruction that renames an architectural
register to the instruction that redefines it — into the paper's three
region types:

* **non-branch**: no conditional branch or indirect jump between the
  renaming instruction (exclusive) and the redefining instruction
  (inclusive);
* **non-except**: no memory operation or divide in that window;
* **atomic**: both, i.e. all instructions in the chain commit or flush as
  a group.

The renaming instruction itself may be a region breaker (a region can
*begin* with a load); the redefining instruction may not (a faulting
redefiner would be flushed, un-redefining the register).  This matches
the runtime ATR mechanism, which bulk-marks the SRT *before* allocating
the breaker's own destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..frontend import Trace
from ..isa import ArchReg, RegClass


@dataclass
class RegionChain:
    """One allocation chain of one architectural register."""

    file: RegClass
    slot: int
    alloc_seq: int
    redefine_seq: Optional[int]  # None: never redefined before trace end
    consumers: int
    non_branch: bool
    non_except: bool

    @property
    def atomic(self) -> bool:
        return self.non_branch and self.non_except

    @property
    def closed(self) -> bool:
        return self.redefine_seq is not None

    def to_dict(self) -> Dict:
        return {
            "file": self.file.name,
            "slot": self.slot,
            "alloc_seq": self.alloc_seq,
            "redefine_seq": self.redefine_seq,
            "consumers": self.consumers,
            "non_branch": self.non_branch,
            "non_except": self.non_except,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RegionChain":
        data = dict(data)
        data["file"] = RegClass[data["file"]]
        return cls(**data)


@dataclass
class RegionReport:
    """Aggregate of a trace's region classification (one Figure 6 bar)."""

    name: str
    chains: List[RegionChain] = field(default_factory=list)

    @property
    def total_allocations(self) -> int:
        return len(self.chains)

    def ratio(self, kind: str, file: Optional[RegClass] = None) -> float:
        """Fraction of allocations in regions of *kind*
        ('non_branch' | 'non_except' | 'atomic')."""
        if kind not in ("non_branch", "non_except", "atomic"):
            raise ValueError(f"unknown region kind {kind!r}")
        chains = [c for c in self.chains if file is None or c.file is file]
        if not chains:
            return 0.0
        if kind == "non_branch":
            hit = sum(1 for c in chains if c.closed and c.non_branch)
        elif kind == "non_except":
            hit = sum(1 for c in chains if c.closed and c.non_except)
        else:
            hit = sum(1 for c in chains if c.closed and c.atomic)
        return hit / len(chains)

    def atomic_chains(self, file: Optional[RegClass] = None) -> List[RegionChain]:
        return [
            c for c in self.chains
            if c.closed and c.atomic and (file is None or c.file is file)
        ]

    def consumer_histogram(self, file: Optional[RegClass] = None) -> Dict[int, int]:
        """Consumers-per-atomic-region histogram (paper Figure 12)."""
        histogram: Dict[int, int] = {}
        for chain in self.atomic_chains(file):
            histogram[chain.consumers] = histogram.get(chain.consumers, 0) + 1
        return histogram

    def mean_consumers(self, file: Optional[RegClass] = None) -> float:
        chains = self.atomic_chains(file)
        if not chains:
            return 0.0
        return sum(c.consumers for c in chains) / len(chains)

    def to_dict(self) -> Dict:
        return {"name": self.name, "chains": [c.to_dict() for c in self.chains]}

    @classmethod
    def from_dict(cls, data: Dict) -> "RegionReport":
        return cls(
            name=data["name"],
            chains=[RegionChain.from_dict(c) for c in data["chains"]],
        )


class _OpenChain:
    __slots__ = ("alloc_seq", "consumers", "last_control", "last_except")

    def __init__(self, alloc_seq: int, last_control: int, last_except: int):
        self.alloc_seq = alloc_seq
        self.consumers = 0
        self.last_control = last_control
        self.last_except = last_except


def classify_regions(trace: Trace) -> RegionReport:
    """Classify every allocation chain in *trace*."""
    report = RegionReport(name=trace.name)
    open_chains: Dict[ArchReg, _OpenChain] = {}
    last_control = -1  # seq of last conditional branch / indirect jump
    last_except = -1   # seq of last memory op / divide

    for seq, entry in enumerate(trace.entries):
        instr = entry.instr
        # Breakers take effect before this instruction's own destination is
        # renamed (the bulk-marking order of section 4.2.2).
        if instr.breaks_region_control:
            last_control = seq
        if instr.may_except:
            last_except = seq
        for src in instr.srcs:
            chain = open_chains.get(src)
            if chain is not None:
                chain.consumers += 1
        for dest in instr.dests:
            previous = open_chains.get(dest)
            if previous is not None:
                report.chains.append(
                    RegionChain(
                        file=dest.cls.file,
                        slot=dest.srt_slot,
                        alloc_seq=previous.alloc_seq,
                        redefine_seq=seq,
                        consumers=previous.consumers,
                        non_branch=last_control <= previous.alloc_seq,
                        non_except=last_except <= previous.alloc_seq,
                    )
                )
            open_chains[dest] = _OpenChain(seq, last_control, last_except)

    for dest, chain in open_chains.items():
        report.chains.append(
            RegionChain(
                file=dest.cls.file,
                slot=dest.srt_slot,
                alloc_seq=chain.alloc_seq,
                redefine_seq=None,
                consumers=chain.consumers,
                non_branch=False,
                non_except=False,
            )
        )
    return report


def atomic_ratio(trace: Trace, file: Optional[RegClass] = None) -> float:
    """Convenience: the Figure 6 'atomic' ratio for one trace."""
    return classify_regions(trace).ratio("atomic", file=file)

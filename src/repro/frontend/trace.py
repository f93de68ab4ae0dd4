"""Dynamic instruction traces.

A :class:`Trace` is the unit of work the cycle simulator consumes: the
static :class:`~repro.isa.program.Program` plus the dynamic sequence of
(pc, next_pc, taken, memory address) tuples the functional emulator
produced.  This mirrors the paper's trace-based Scarab frontend, which
replays "a precise, continuous sequence of dynamically executed basic
blocks along with their corresponding memory addresses" and re-fetches
static code on the wrong path.

Each entry also records the value it committed, so functional
fast-forward and every run's closing golden check replay the trace
instead of emulating the program again: a trace is built with one
emulator run and only ever read afterwards.
Traces live in memory only (see ``build_trace``'s cache); nothing
writes them to files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from ..isa import Instruction, Program


class DynamicInstruction:
    """One dynamically executed instruction.

    ``seq`` is the dynamic instruction number (age order: smaller = older).
    ``mem_addr`` is the effective byte address for memory operations, else
    ``None``.  ``result`` is what the emulator committed: the value written
    to the destination register, or the word (``st``) or lanes (``vst``)
    stored; ``None`` when the instruction writes nothing.  Only the two
    functional replays read it: :func:`repro.pipeline.warmup.fast_forward`
    and the end-of-run golden check
    (:meth:`repro.pipeline.Core.check_golden_state`).  Fetch, rename,
    issue and execute never do: the cycle core computes its own values,
    and its fetch stage builds each in-flight entry from the other fields.
    """

    __slots__ = ("seq", "pc", "instr", "next_pc", "taken", "mem_addr", "result")

    def __init__(
        self,
        seq: int,
        pc: int,
        instr: Instruction,
        next_pc: int,
        taken: bool = False,
        mem_addr: Optional[int] = None,
        result=None,
    ):
        self.seq = seq
        self.pc = pc
        self.instr = instr
        self.next_pc = next_pc
        self.taken = taken
        self.mem_addr = mem_addr
        self.result = result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<#{self.seq} pc={self.pc} {self.instr.render()} -> {self.next_pc}>"


@dataclass
class Trace:
    """A dynamic trace: program plus executed instruction stream."""

    program: Program
    entries: List[DynamicInstruction] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.program.name

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DynamicInstruction]:
        return iter(self.entries)

    def __getitem__(self, index):
        return self.entries[index]

    def branch_count(self) -> int:
        return sum(1 for e in self.entries if e.instr.is_conditional_branch)

    def memory_count(self) -> int:
        return sum(1 for e in self.entries if e.instr.is_memory)

    def summary(self) -> dict:
        """Basic mix statistics, for workload characterization."""
        total = len(self.entries) or 1
        branches = self.branch_count()
        taken = sum(1 for e in self.entries if e.instr.is_conditional_branch and e.taken)
        return {
            "name": self.name,
            "instructions": len(self.entries),
            "branches": branches,
            "branch_ratio": branches / total,
            "taken_ratio": taken / branches if branches else 0.0,
            "memory_ratio": self.memory_count() / total,
        }

"""Wrong-path instruction supply.

After a branch misprediction the real machine keeps fetching *static* code
at the predicted target; those wrong-path instructions are decoded, renamed
(allocating physical registers!) and executed until the branch resolves and
the pipeline flushes.  ATR's safety argument is precisely about this
situation, so the simulator models it faithfully: this module decodes the
static program image at an arbitrary PC and supplies what the fetch stage
needs to build an in-flight entry for the speculative stream.

Design notes:

* Wrong-path memory addresses are unknowable (the source registers hold
  wrong-path values); we synthesize a deterministic pseudo-address from
  (pc, seq) so dcache behaviour is reproducible, matching trace-based
  Scarab's treatment of wrong-path loads.
* Wrong-path control flow follows whatever the branch predictor says; the
  supplier itself reports conditional branches as not-taken so that the
  prediction alone steers the speculative stream.
* Fetching past the program image yields ``None`` (fetch stalls), like
  running into an unmapped page.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..isa import Instruction, Program

_MASK64 = (1 << 64) - 1


def _pseudo_address(pc: int, seq: int) -> int:
    """Deterministic pseudo-random address for a wrong-path memory op.

    Spread over a 1 MiB window, 8-byte aligned, so wrong-path accesses mix
    cache hits and misses without being degenerate.
    """
    h = (pc * 0x9E3779B97F4A7C15 + seq * 0xBF58476D1CE4E5B9) & _MASK64
    return (h % (1 << 20)) & ~0x7


class WrongPathSupplier:
    """Decodes wrong-path instructions from the static image."""

    def __init__(self, program: Program):
        self.program = program
        self.supplied = 0

    def fetch(self, pc: int, seq: int
              ) -> Optional[Tuple[Instruction, int, Optional[int]]]:
        """``(instr, next_pc, mem_addr)`` for the instruction at *pc*,
        fetched as dynamic instruction *seq*.

        Returns ``None`` when *pc* lies outside the program image; the
        fetch unit treats that as a stall until the flush arrives.
        Conditional branches are reported not taken: the fetch unit
        follows the prediction.
        """
        instr = self.program.at(pc)
        if instr is None or instr.is_halt:
            return None
        self.supplied += 1
        mem_addr = _pseudo_address(pc, seq) if instr.is_memory else None
        # Direct unconditional control flow still has a known target on the
        # wrong path; conditional direction and indirect targets are the
        # predictor's call (next_pc is the fall-through).
        if instr.is_control and not instr.is_conditional_branch and instr.target is not None:
            next_pc = instr.target
        else:
            next_pc = pc + 1
        return instr, next_pc, mem_addr

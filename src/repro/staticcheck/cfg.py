"""Control-flow graph construction over a static :class:`Program`.

Block leaders are program entry, every direct branch/jump/call target,
every instruction after a control-flow instruction, and every labeled
instruction (labels are the only addresses an indirect jump can name,
since ``JR`` targets are loaded from label-patched jump tables).

Edge kinds:

* ``fall``   — sequential fallthrough (including branch not-taken);
* ``branch`` — conditional branch taken;
* ``jump``   — direct unconditional ``JMP``;
* ``call``   — ``CALL`` into its target function;
* ``ret``    — ``RET`` back to the instruction after a matching call
  site (call sites are matched by function membership: an
  intraprocedural walk from each ``CALL`` target, stepping *over*
  nested calls, discovers which ``RET`` instructions belong to which
  entry — the static mirror of the ``LINK_REG`` convention);
* ``indirect`` — ``JR`` to any labeled instruction that is not a call
  entry (conservative: jump tables are built from labels, and function
  entries are reached by ``CALL``, not ``JR``).

Invalid direct targets produce no edge; they are recorded in
``CFG.bad_targets`` and surfaced by the ``cfg-bad-target`` lint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..isa import Instruction, Opcode, Program


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions ``[start, end)``."""

    index: int
    start: int
    end: int  # exclusive
    succs: List[Tuple[int, str]] = field(default_factory=list)  # (block, kind)
    preds: List[int] = field(default_factory=list)

    @property
    def terminator_pc(self) -> int:
        return self.end - 1

    def pcs(self) -> range:
        return range(self.start, self.end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"B{self.index}[{self.start}:{self.end}]"


@dataclass
class CFG:
    """Basic blocks, edges, and the call/return structure of a program."""

    program: Program
    blocks: List[BasicBlock]
    #: Block index containing each pc.
    block_index: List[int]
    #: CALL-target pcs (function entries), in pc order.
    entries: Tuple[int, ...]
    #: Function entry pc -> ret pcs discovered by the intraprocedural walk.
    rets_of: Dict[int, FrozenSet[int]]
    #: pcs of direct control-flow with a missing or out-of-range target.
    bad_targets: List[int]
    #: pcs that can transfer control past the end of the code image.
    falls_off_end: List[int]

    def block_of(self, pc: int) -> BasicBlock:
        return self.blocks[self.block_index[pc]]

    def reachable(self) -> Set[int]:
        """Block indices reachable from program entry along CFG edges."""
        seen: Set[int] = set()
        work = [0] if self.blocks else []
        while work:
            index = work.pop()
            if index in seen:
                continue
            seen.add(index)
            work.extend(succ for succ, _kind in self.blocks[index].succs
                        if succ not in seen)
        return seen

    def top_level_rets(self) -> List[int]:
        """``RET`` pcs executable without a prior unmatched ``CALL``.

        Walks from program entry treating every ``CALL`` as a summary
        (continue at the return site), so reaching a ``RET`` means the
        link register holds no caller address — the ``cfg-call-ret-
        imbalance`` defect.
        """
        hits = _walk_function(self.program, 0, self._indirect_targets())
        return sorted(hits)

    def _indirect_targets(self) -> Tuple[int, ...]:
        return _indirect_targets(self.program, set(self.entries))


def _direct_target(instr: Instruction, size: int) -> Optional[int]:
    """The validated static target of a direct control instruction."""
    if instr.target is None or not 0 <= instr.target < size:
        return None
    return instr.target


def _indirect_targets(program: Program, entries: Set[int]) -> Tuple[int, ...]:
    """Conservative ``JR`` target set: labeled pcs minus call entries."""
    return tuple(sorted(pc for pc in program.labels.values()
                        if 0 <= pc < len(program) and pc not in entries))


def _walk_function(program: Program, entry: int,
                   indirect: Iterable[int]) -> FrozenSet[int]:
    """Intraprocedural walk from *entry*: the set of ``RET`` pcs reached.

    CALLs are stepped over (callee assumed to balance and return), so the
    walk stays within one call depth — exactly the code a ``RET`` at
    *entry*'s depth can belong to.
    """
    size = len(program)
    rets: Set[int] = set()
    seen: Set[int] = set()
    work = [entry]
    while work:
        pc = work.pop()
        if pc in seen or not 0 <= pc < size:
            continue
        seen.add(pc)
        instr = program.instructions[pc]
        if instr.is_halt:
            continue
        if instr.opcode is Opcode.RET:
            rets.add(pc)
            continue
        if instr.opcode is Opcode.JMP:
            target = _direct_target(instr, size)
            if target is not None:
                work.append(target)
            continue
        if instr.opcode is Opcode.JR:
            work.extend(indirect)
            continue
        if instr.is_conditional_branch:
            target = _direct_target(instr, size)
            if target is not None:
                work.append(target)
            work.append(pc + 1)
            continue
        # CALL steps over to its return site; everything else falls through.
        work.append(pc + 1)
    return frozenset(rets)


def build_cfg(program: Program) -> CFG:
    """Build the CFG of *program* (empty programs yield zero blocks)."""
    size = len(program)
    instrs = program.instructions
    if size == 0:
        return CFG(program, [], [], (), {}, [], [])

    # -- call structure ----------------------------------------------------
    entries_set: Set[int] = set()
    for instr in instrs:
        if instr.opcode is Opcode.CALL:
            target = _direct_target(instr, size)
            if target is not None:
                entries_set.add(target)
    indirect = _indirect_targets(program, entries_set)
    rets_of = {entry: _walk_function(program, entry, indirect)
               for entry in sorted(entries_set)}
    #: RET pc -> return-site pcs it may resume at.
    resume_sites: Dict[int, Set[int]] = {}
    for pc, instr in enumerate(instrs):
        if instr.opcode is Opcode.CALL:
            target = _direct_target(instr, size)
            if target is None or pc + 1 > size:
                continue
            for ret_pc in rets_of.get(target, ()):
                resume_sites.setdefault(ret_pc, set()).add(pc + 1)

    # -- leaders -----------------------------------------------------------
    leaders: Set[int] = {0}
    leaders.update(t for t in indirect)
    leaders.update(e for e in entries_set)
    bad_targets: List[int] = []
    falls_off_end: List[int] = []
    for pc, instr in enumerate(instrs):
        if instr.is_control and not instr.is_indirect and not instr.is_halt:
            target = _direct_target(instr, size)
            if target is None:
                bad_targets.append(pc)
            else:
                leaders.add(target)
        if instr.is_control or instr.is_halt:
            if pc + 1 < size:
                leaders.add(pc + 1)

    # -- blocks ------------------------------------------------------------
    starts = sorted(leaders)
    blocks: List[BasicBlock] = []
    block_index = [0] * size
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else size
        block = BasicBlock(index=i, start=start, end=end)
        blocks.append(block)
        for pc in range(start, end):
            block_index[pc] = i

    # -- edges -------------------------------------------------------------
    def link(src: BasicBlock, target_pc: int, kind: str) -> None:
        dst = blocks[block_index[target_pc]]
        src.succs.append((dst.index, kind))
        dst.preds.append(src.index)

    for block in blocks:
        pc = block.terminator_pc
        instr = instrs[pc]
        if instr.is_halt:
            continue
        if instr.opcode is Opcode.JMP:
            target = _direct_target(instr, size)
            if target is not None:
                link(block, target, "jump")
            continue
        if instr.opcode is Opcode.JR:
            for target in indirect:
                link(block, target, "indirect")
            continue
        if instr.opcode is Opcode.RET:
            for site in sorted(resume_sites.get(pc, ())):
                if site < size:
                    link(block, site, "ret")
                else:
                    falls_off_end.append(pc)
            continue
        if instr.opcode is Opcode.CALL:
            target = _direct_target(instr, size)
            if target is not None:
                link(block, target, "call")
            continue
        if instr.is_conditional_branch:
            target = _direct_target(instr, size)
            if target is not None:
                link(block, target, "branch")
            if pc + 1 < size:
                link(block, pc + 1, "fall")
            else:
                falls_off_end.append(pc)
            continue
        # Plain instruction at a block boundary: sequential fallthrough.
        if pc + 1 < size:
            link(block, pc + 1, "fall")
        else:
            falls_off_end.append(pc)

    return CFG(
        program=program,
        blocks=blocks,
        block_index=block_index,
        entries=tuple(sorted(entries_set)),
        rets_of=rets_of,
        bad_targets=bad_targets,
        falls_off_end=falls_off_end,
    )

"""Programs and the fluent builder API used by the workload kernels.

A :class:`Program` is an immutable sequence of static instructions plus a
label table and an initial data image (:class:`DataImage`).
:class:`ProgramBuilder` offers one method per opcode with forward-label
support, so kernels read close to assembly::

    b = ProgramBuilder()
    b.movi(r(0), 0)
    with b.loop("head"):
        ...
    prog = b.build()
"""

from __future__ import annotations

from array import array
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field, replace
from math import gcd
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .instruction import Instruction, validate_instruction
from .opcodes import Opcode
from .registers import FLAGS, ArchReg, ireg

#: Link register written by CALL and read by RET.
LINK_REG = ireg(15)


class ProgramValidationError(ValueError):
    """A built program is structurally malformed: an unresolved or
    out-of-range control target, or code that can fall off the image.

    Raised by :meth:`ProgramBuilder.build` so malformed (e.g.
    synthesized) programs fail at build time instead of inside the
    emulator or the pipeline's fetch stage.
    """


#: One dense run of data words: ``(base, end, stride, values)``, word
#: ``i`` at ``base + stride * i`` and ``end = base + stride * len(values)``.
Block = Tuple[int, int, int, array]


class DataImage(Mapping):
    """A program's initial data image, read-only: address -> 64-bit word.

    Each :meth:`ProgramBuilder.words` run is one dense block (an
    ``array('Q')``); :meth:`ProgramBuilder.word` fills a small dict of
    single words, which shadow the blocks.  No two blocks share a word.
    :meth:`get` indexes the block that holds the address, so a load never
    expands the image; iterating, ``len`` and ``==`` walk the blocks word
    by word and are for comparisons only.
    """

    __slots__ = ("blocks", "_words")

    def __init__(self, blocks: Iterable[Block] = (),
                 words: Optional[Dict[int, int]] = None):
        self.blocks: Tuple[Block, ...] = tuple(blocks)
        self._words: Dict[int, int] = dict(words or {})

    def get(self, addr: int, default=None):
        value = self._words.get(addr)
        if value is not None:
            return value
        for base, end, stride, values in self.blocks:
            if base <= addr < end:
                offset = addr - base
                if not offset % stride:
                    return values[offset // stride]
        return default

    def __getitem__(self, addr: int) -> int:
        value = self.get(addr)
        if value is None:
            raise KeyError(addr)
        return value

    def _pairs(self) -> Iterator[Tuple[int, int]]:
        words = self._words
        yield from words.items()
        for base, end, stride, values in self.blocks:
            pairs = zip(range(base, end, stride), values)
            if words:
                pairs = ((addr, value) for addr, value in pairs
                         if addr not in words)
            yield from pairs

    def __iter__(self) -> Iterator[int]:
        return (addr for addr, _value in self._pairs())

    def __len__(self) -> int:
        return sum(1 for _pair in self._pairs())

    def items(self) -> ItemsView:
        return _PairsView(self)

    def values(self) -> ValuesView:
        return _ValuesView(self)

    def __repr__(self) -> str:
        return (f"DataImage({len(self.blocks)} blocks, "
                f"{len(self._words)} single words)")


class _PairsView(ItemsView):
    def __iter__(self):
        return self._mapping._pairs()


class _ValuesView(ValuesView):
    def __iter__(self):
        for _addr, value in self._mapping._pairs():
            yield value


@dataclass(frozen=True)
class Program:
    """An immutable program: code, labels, and an initial memory image."""

    instructions: Tuple[Instruction, ...]
    labels: Dict[str, int] = field(default_factory=dict)
    data: DataImage = field(default_factory=DataImage)
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def at(self, pc: int) -> Optional[Instruction]:
        """The instruction at *pc*, or ``None`` if outside the image.

        Wrong-path fetch may run past the program end; callers treat
        ``None`` as an implicit HALT-like fetch stall.
        """
        if 0 <= pc < len(self.instructions):
            return self.instructions[pc]
        return None

    def label_of(self, pc: int) -> Optional[str]:
        instr = self.at(pc)
        return instr.label if instr is not None else None

    def disassemble(self) -> str:
        """Full program listing with PCs and labels."""
        lines = []
        for pc, instr in enumerate(self.instructions):
            if instr.label:
                lines.append(f"{instr.label}:")
            lines.append(f"  {pc:5d}  {instr.render()}")
        return "\n".join(lines)


class _ForwardLabel:
    """Placeholder target resolved at :meth:`ProgramBuilder.build`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class ProgramBuilder:
    """Incrementally builds a :class:`Program`.

    Labels may be referenced before they are defined; they are resolved at
    :meth:`build` time.  Every emit method returns the PC of the emitted
    instruction.
    """

    def __init__(self, name: str = "program"):
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._pending_label: Optional[str] = None
        self._blocks: List[Block] = []
        self._words: Dict[int, int] = {}

    # -- structure ----------------------------------------------------------
    @property
    def pc(self) -> int:
        """PC of the next instruction to be emitted."""
        return len(self._instructions)

    def label(self, name: str) -> int:
        """Define *name* at the current PC."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = self.pc
        self._pending_label = name
        return self.pc

    def word(self, addr: int, value: int) -> None:
        """Place a 64-bit word in the initial data image.

        Raises ValueError unless *addr* and *value* both lie in
        ``0..2**64-1``: every register value does, so a load must not
        bring in anything else.
        """
        if addr >> 64 or value >> 64:  # nonzero for negatives as well
            raise ValueError(f"data word {value:#x} at {addr:#x} outside 0..2**64-1")
        self._words[addr] = value

    def words(self, addr: int, values: Iterable[int], stride: int = 8) -> None:
        """Place words at *addr*, *addr* + *stride*, ... as one dense block.

        *values* may be any iterable of ints, or an ``array('Q')``, whose
        words need no range check.  Raises ValueError, as :meth:`word`
        does, if an address or a value lies outside ``0..2**64-1``.  Words
        placed earlier at the same addresses are overwritten.
        """
        if stride < 1:
            raise ValueError(f"data word stride {stride} must be positive")
        try:
            block = array("Q", values)
        except OverflowError:
            raise ValueError(f"a data word in the run at {addr:#x} lies "
                             f"outside 0..2**64-1") from None
        if not block:
            return
        last = addr + stride * (len(block) - 1)
        if addr >> 64 or last >> 64:
            raise ValueError(f"data words at {addr:#x}..{last:#x} lie "
                             f"outside 0..2**64-1")
        end = last + stride

        def covered(word: int) -> bool:
            return addr <= word < end and not (word - addr) % stride

        if any(covered(word) for word in self._words):
            self._words = {word: value for word, value in self._words.items()
                           if not covered(word)}
        kept = []
        for old in self._blocks:
            base, old_end, old_stride, old_values = old
            if (base < end and addr < old_end
                    and not (addr - base) % gcd(stride, old_stride)):
                # The runs may share words: keep the old run's other
                # words as single words (earlier single words still win).
                for word, value in zip(range(base, old_end, old_stride),
                                       old_values):
                    if not covered(word):
                        self._words.setdefault(word, value)
            else:
                kept.append(old)
        kept.append((addr, end, stride, block))
        self._blocks = kept

    def _emit(self, opcode: Opcode, dests=(), srcs=(), imm=0, target=None) -> int:
        instr = Instruction(
            opcode=opcode,
            dests=tuple(dests),
            srcs=tuple(srcs),
            imm=imm,
            target=target,
            label=self._pending_label,
        )
        self._pending_label = None
        if not isinstance(target, _ForwardLabel):
            validate_instruction(instr)
        self._instructions.append(instr)
        return len(self._instructions) - 1

    def _target(self, where) -> object:
        """Resolve *where* (label name or PC) now if possible."""
        if isinstance(where, str):
            if where in self._labels:
                return self._labels[where]
            return _ForwardLabel(where)
        return int(where)

    # -- integer ALU ----------------------------------------------------------
    def add(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.ADD, [d], [a, b])

    def sub(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.SUB, [d], [a, b])

    def and_(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.AND, [d], [a, b])

    def or_(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.OR, [d], [a, b])

    def xor(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.XOR, [d], [a, b])

    def shl(self, d: ArchReg, a: ArchReg, amount: int) -> int:
        return self._emit(Opcode.SHL, [d], [a], imm=amount)

    def shr(self, d: ArchReg, a: ArchReg, amount: int) -> int:
        return self._emit(Opcode.SHR, [d], [a], imm=amount)

    def not_(self, d: ArchReg, a: ArchReg) -> int:
        return self._emit(Opcode.NOT, [d], [a])

    def neg(self, d: ArchReg, a: ArchReg) -> int:
        return self._emit(Opcode.NEG, [d], [a])

    def mov(self, d: ArchReg, a: ArchReg) -> int:
        return self._emit(Opcode.MOV, [d], [a])

    def movi(self, d: ArchReg, value: int) -> int:
        return self._emit(Opcode.MOVI, [d], [], imm=value)

    def lea(self, d: ArchReg, a: ArchReg, disp: int) -> int:
        return self._emit(Opcode.LEA, [d], [a], imm=disp)

    def cmp(self, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.CMP, [FLAGS], [a, b])

    def test(self, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.TEST, [FLAGS], [a, b])

    def select(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        """d = a if FLAGS says equal/zero else b."""
        return self._emit(Opcode.SELECT, [d], [FLAGS, a, b])

    def mul(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.MUL, [d], [a, b])

    def div(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.DIV, [d], [a, b])

    def mod(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.MOD, [d], [a, b])

    # -- memory -------------------------------------------------------------
    def ld(self, d: ArchReg, base: ArchReg, disp: int = 0) -> int:
        return self._emit(Opcode.LD, [d], [base], imm=disp)

    def st(self, value: ArchReg, base: ArchReg, disp: int = 0) -> int:
        return self._emit(Opcode.ST, [], [value, base], imm=disp)

    # -- control flow ---------------------------------------------------------
    def beq(self, where) -> int:
        return self._emit(Opcode.BEQ, [], [FLAGS], target=self._target(where))

    def bne(self, where) -> int:
        return self._emit(Opcode.BNE, [], [FLAGS], target=self._target(where))

    def blt(self, where) -> int:
        return self._emit(Opcode.BLT, [], [FLAGS], target=self._target(where))

    def bge(self, where) -> int:
        return self._emit(Opcode.BGE, [], [FLAGS], target=self._target(where))

    def jmp(self, where) -> int:
        return self._emit(Opcode.JMP, target=self._target(where))

    def jr(self, reg: ArchReg) -> int:
        return self._emit(Opcode.JR, [], [reg])

    def call(self, where) -> int:
        return self._emit(Opcode.CALL, [LINK_REG], [], target=self._target(where))

    def ret(self) -> int:
        return self._emit(Opcode.RET, [], [LINK_REG])

    # -- vector ---------------------------------------------------------------
    def vadd(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.VADD, [d], [a, b])

    def vsub(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.VSUB, [d], [a, b])

    def vmul(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.VMUL, [d], [a, b])

    def vfma(self, d: ArchReg, a: ArchReg, b: ArchReg, c: ArchReg) -> int:
        return self._emit(Opcode.VFMA, [d], [a, b, c])

    def vdiv(self, d: ArchReg, a: ArchReg, b: ArchReg) -> int:
        return self._emit(Opcode.VDIV, [d], [a, b])

    def vbroadcast(self, d: ArchReg, a: ArchReg) -> int:
        return self._emit(Opcode.VBROADCAST, [d], [a])

    def vld(self, d: ArchReg, base: ArchReg, disp: int = 0) -> int:
        return self._emit(Opcode.VLD, [d], [base], imm=disp)

    def vst(self, value: ArchReg, base: ArchReg, disp: int = 0) -> int:
        return self._emit(Opcode.VST, [], [value, base], imm=disp)

    def vreduce(self, d: ArchReg, a: ArchReg) -> int:
        return self._emit(Opcode.VREDUCE, [d], [a])

    # -- lint suppression -----------------------------------------------------
    def lint_ignore(self, *rules: str) -> "ProgramBuilder":
        """Suppress the named lint rules on the last emitted instruction.

        Attaches a ``lint: ignore[rule-id, ...]`` marker to the
        instruction's comment, which ``repro.staticcheck`` honors when
        reporting findings::

            b.add(r(2), r(2), r(6))
            b.lint_ignore("df-dead-store")  # immediate redefinition is the point
        """
        if not rules:
            raise ValueError("lint_ignore needs at least one rule id")
        if not self._instructions:
            raise ValueError("lint_ignore must follow an emitted instruction")
        last = self._instructions[-1]
        marker = f"lint: ignore[{', '.join(rules)}]"
        comment = f"{last.comment} {marker}".strip()
        self._instructions[-1] = replace(last, comment=comment)
        return self

    # -- misc -----------------------------------------------------------------
    def nop(self) -> int:
        return self._emit(Opcode.NOP)

    def halt(self) -> int:
        return self._emit(Opcode.HALT)

    # -- finalization -----------------------------------------------------------
    def build(self) -> Program:
        """Resolve forward labels, validate, freeze into a :class:`Program`.

        Raises :class:`ProgramValidationError` if a control-flow target
        does not resolve to a pc inside the final code image (the
        auto-appended trailing HALT also rules out falling off the end),
        so malformed programs fail here instead of inside the emulator.
        """
        resolved: List[Instruction] = []
        for pc, instr in enumerate(self._instructions):
            target = instr.target
            if isinstance(target, _ForwardLabel):
                if target.name not in self._labels:
                    raise ProgramValidationError(
                        f"undefined label {target.name!r} at pc {pc}")
                instr = replace(instr, target=self._labels[target.name])
            validate_instruction(instr)
            resolved.append(instr)
        if not resolved or not resolved[-1].is_halt:
            resolved.append(Instruction(Opcode.HALT))
        size = len(resolved)
        for pc, instr in enumerate(resolved):
            if (instr.is_control and not instr.is_indirect
                    and not instr.is_halt
                    and not 0 <= instr.target < size):
                raise ProgramValidationError(
                    f"{instr.opcode.value} at pc {pc} targets {instr.target}, "
                    f"outside the code image [0, {size})")
        return Program(
            instructions=tuple(resolved),
            labels=dict(self._labels),
            data=DataImage(self._blocks, self._words),
            name=self.name,
        )

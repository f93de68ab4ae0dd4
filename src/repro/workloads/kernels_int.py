"""SPEC CPU 2017 integer-suite stand-in kernels (paper Table 2).

Each kernel is a hand-written program in the reproduction ISA that mimics
the *register-lifetime-relevant* character of its namesake benchmark: the
mix of conditional branches, loads/stores, and the ALU chains between
them that determine how many registers live inside atomic commit regions,
plus a realistic memory footprint so register pressure actually builds
behind cache misses (the effect the paper's RF-size sweeps measure).
They are not functional ports of SPEC; they are workload generators with
the right rename-stage and memory-system statistics.

Every builder takes ``iterations`` (outer loop trip count) and a ``seed``
for its embedded data, so traces are deterministic but non-trivial.
"""

from __future__ import annotations

import random
from array import array

from ..isa import LINK_REG, Program, ProgramBuilder, ireg

#: Base addresses for the kernels' data regions.
_HEAP = 0x100000
_TABLE = 0x400000
_STACK = 0x800000


def _lcg_words(seed: int, count: int, bound: int = 1 << 30,
               start: int = 0) -> array:
    """``[rng.randrange(start, bound) for _ in range(count)]`` with
    ``rng = random.Random(seed)``, drawn in bulk, as an ``array('Q')``
    block for :meth:`ProgramBuilder.words`.

    ``randrange`` draws one Mersenne Twister word per try, keeps its top
    ``(bound - start).bit_length()`` bits and retries while the value is
    out of range.  ``getrandbits(32 * m)`` returns the same words, least
    significant first, so shifting and rejecting them in numpy yields the
    same values.  The generator is private, so drawing past the last
    accepted word changes nothing.
    """
    import numpy as np

    width = bound - start
    bits = width.bit_length()
    if width < 1 or bits > 32:
        raise ValueError(f"cannot draw from range({start}, {bound})")
    rng = random.Random(seed)
    kept = []
    need = count
    while need > 0:
        # A word is kept with probability width / 2**bits, so this draws
        # about enough; a shortfall takes another round.
        draw = (need << bits) // width + 64
        words = np.frombuffer(
            rng.getrandbits(32 * draw).to_bytes(4 * draw, "little"),
            dtype="<u4") >> (32 - bits)
        accepted = words[words < width][:need]
        kept.append(accepted)
        need -= len(accepted)
    block = array("Q")
    if kept:
        values = np.concatenate(kept).astype(np.uint64)
        values += start
        block.frombytes(values.view(np.uint8))
    return block


def perlbench(iterations: int = 64, seed: int = 1) -> Program:
    """String hashing + hash-table probes: data-dependent branches on
    hash bits, short ALU runs with temp reuse, frequent calls (perl's
    opcode dispatch), and a hash table too big for the L1."""
    b = ProgramBuilder("500.perlbench_r")
    words = 512                      # 4 KiB string buffer
    table_words = 262144             # 2 MiB hash table
    b.words(_HEAP, _lcg_words(seed, words, bound=1 << 16))
    r = ireg
    b.movi(r(1), iterations)
    b.movi(r(2), _HEAP)
    b.movi(r(3), 0)                  # hash
    b.movi(r(4), 1)
    b.movi(r(9), _TABLE)
    b.movi(r(10), 33)
    b.label("outer")
    b.movi(r(5), 64)                 # chars per string
    b.label("hash_loop")
    b.ld(r(7), r(2), 0)
    b.mul(r(3), r(3), r(10))         # hash = hash*33 + c
    b.add(r(3), r(3), r(7))
    b.shr(r(7), r(3), 7)             # temp reuse: r7 redefined (atomic)
    b.xor(r(3), r(3), r(7))
    b.lea(r(2), r(2), 8)
    b.sub(r(5), r(5), r(4))
    b.test(r(5), r(5))
    b.bne("hash_loop")
    # probe: bucket = hash % table, branch on tag parity
    b.movi(r(8), (table_words - 1) * 8)
    b.shl(r(11), r(3), 3)
    b.and_(r(11), r(11), r(8))       # r11 reused below (atomic material)
    b.add(r(11), r(11), r(9))
    b.ld(r(12), r(11), 0)
    b.test(r(12), r(4))
    b.bne("miss")
    b.call("insert")
    b.jmp("next")
    b.label("miss")
    b.xor(r(3), r(3), r(12))
    b.add(r(3), r(3), r(4))
    b.label("next")
    b.movi(r(5), words * 8 - 512)
    b.and_(r(6), r(3), r(5))         # new string offset from hash
    b.movi(r(2), _HEAP)
    b.add(r(2), r(2), r(6))
    b.lint_ignore("df-dead-store")   # the redefinition below is the point
    b.movi(r(2), _HEAP)              # immediate redefinition (atomic)
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("outer")
    b.halt()
    b.label("insert")
    b.st(r(3), r(11), 0)
    b.ld(r(13), r(11), 8)
    b.add(r(3), r(3), r(13))
    b.ret()
    return b.build()


def gcc(iterations: int = 48, seed: int = 2) -> Program:
    """Indirect dispatch (a switch over IR opcodes via an in-memory jump
    table) with per-case short ALU bursts — gcc's insn pattern matching
    over a multi-hundred-KiB IR array."""
    b = ProgramBuilder("502.gcc_r")
    r = ireg
    cases = 4
    ir_words = 262144                # 2 MiB of "IR"
    table_base = _TABLE
    b.words(_HEAP, _lcg_words(seed, ir_words, bound=cases))
    b.movi(r(1), iterations)
    b.movi(r(2), _HEAP)
    b.movi(r(4), 1)
    b.movi(r(6), 0)
    b.movi(r(9), table_base)
    b.movi(r(10), (ir_words - 1) * 8)
    b.label("loop")
    b.ld(r(3), r(2), 0)
    b.shl(r(5), r(3), 3)
    b.add(r(5), r(5), r(9))
    b.ld(r(5), r(5), 0)              # target pc from the jump table
    b.jr(r(5))
    jump_table = [b.label("case0")]
    b.add(r(7), r(6), r(4))          # temps reused across cases
    b.shl(r(7), r(7), 1)
    b.add(r(6), r(7), r(4))
    b.jmp("join")
    jump_table.append(b.label("case1"))
    b.xor(r(7), r(6), r(3))
    b.or_(r(7), r(7), r(4))
    b.add(r(6), r(6), r(7))
    b.jmp("join")
    jump_table.append(b.label("case2"))
    b.shl(r(7), r(6), 1)
    b.add(r(6), r(7), r(4))
    b.jmp("join")
    jump_table.append(b.label("case3"))
    b.sub(r(6), r(6), r(4))
    b.label("join")
    b.lea(r(2), r(2), 8)
    b.lint_ignore("df-dead-store")   # IR cursor reset below redefines r2
    b.shl(r(8), r(6), 3)
    b.and_(r(8), r(8), r(10))
    b.movi(r(2), _HEAP)
    b.add(r(2), r(2), r(8))          # data-dependent next IR position
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("loop")
    b.halt()
    b.words(table_base, jump_table)
    return b.build()


def mcf(iterations: int = 96, seed: int = 3) -> Program:
    """Network-simplex arc scans: four independent pointer chases over a
    2 MiB node pool, interleaved — mcf is cache-hostile but has
    memory-level parallelism across arcs, so a deeper register window
    exposes more outstanding misses (the effect the RF sweeps measure)."""
    b = ProgramBuilder("505.mcf_r")
    r = ireg
    nodes = 32768                    # 32768 x 64 B = 2 MiB
    rng = random.Random(seed)
    order = list(range(1, nodes)) + [0]
    rng.shuffle(order)
    # node i: next pointer at +0, cost at +8
    b.words(_HEAP, [_HEAP + 64 * node for node in order], stride=64)
    b.words(_HEAP + 8, [rng.randrange(1 << 20) for _ in range(nodes)],
            stride=64)
    b.movi(r(1), iterations)
    b.movi(r(4), 1)
    b.movi(r(6), 1 << 21)            # best cost
    b.movi(r(7), 0)                  # improvements
    # four chase cursors starting at spread-out nodes
    for lane, reg in enumerate((2, 9, 10, 11)):
        b.movi(r(reg), _HEAP + 64 * ((lane * nodes) // 4))
    b.label("chase")
    for reg in (2, 9, 10, 11):       # independent lanes: MLP of 4
        b.ld(r(3), r(reg), 8)        # cost
        b.ld(r(reg), r(reg), 0)      # next pointer
        # reduced-cost computation in the load shadow (atomic material):
        # enough independent work that four lanes outgrow a small RF
        b.shl(r(5), r(3), 1)
        b.sub(r(5), r(5), r(3))
        b.add(r(5), r(5), r(7))
        b.shl(r(8), r(5), 2)
        b.xor(r(8), r(8), r(5))
        b.add(r(8), r(8), r(4))
        b.shr(r(12), r(8), 1)
        b.xor(r(12), r(12), r(8))
        b.add(r(13), r(12), r(5))
        b.sub(r(13), r(13), r(4))
        b.cmp(r(13), r(6))
        b.bge(f"no_improve{reg}")
        b.add(r(7), r(7), r(4))
        b.label(f"no_improve{reg}")
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("chase")
    b.halt()
    return b.build()


def omnetpp(iterations: int = 48, seed: int = 4) -> Program:
    """Discrete-event heap over a 128 KiB event array: sift-down with
    load-compare-swap, plus the paper's Figure 5 motif (a load feeding a
    fused test+branch, followed by LEA/LEA/SHR chains whose registers ATR
    frees early)."""
    b = ProgramBuilder("520.omnetpp_r")
    r = ireg
    heap_n = 262144                  # 2 MiB
    b.words(_HEAP, _lcg_words(seed, heap_n, bound=1 << 24))
    b.movi(r(1), iterations)
    b.movi(r(2), _HEAP)
    b.movi(r(4), 1)
    b.movi(r(13), 1)
    b.movi(r(15 - 1), (heap_n - 1) * 8)  # r14: index mask
    b.label("events")
    b.movi(r(5), 0)                  # index
    b.movi(r(6), 6)                  # levels
    b.label("sift")
    b.shl(r(7), r(5), 1)
    b.add(r(7), r(7), r(4))          # left child index
    b.shl(r(8), r(7), 3)
    b.and_(r(8), r(8), r(14))
    b.add(r(8), r(8), r(2))
    b.ld(r(9), r(8), 0)              # child key (long latency, feeds branch)
    b.test(r(9), r(4))
    b.bne("right")
    # Figure 5 motif: dependent address-generation chain after the load
    b.lea(r(10), r(9), 24)           # I3 LEA RAX <- RDI
    b.lea(r(11), r(10), 8)           # I4 LEA RBX <- RAX   (atomic region)
    b.shr(r(11), r(11), 2)           # I5 SHR RBX          (redefines RBX)
    b.add(r(13), r(13), r(11))
    b.mov(r(5), r(7))
    b.jmp("sift_next")
    b.label("right")
    b.add(r(5), r(7), r(4))
    b.xor(r(13), r(13), r(9))
    b.label("sift_next")
    b.sub(r(6), r(6), r(4))
    b.test(r(6), r(6))
    b.bne("sift")
    # schedule: store new event at a hash-derived slot
    b.shl(r(12), r(13), 3)
    b.and_(r(12), r(12), r(14))
    b.add(r(12), r(12), r(2))
    b.st(r(13), r(12), 0)
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("events")
    b.halt()
    return b.build()


def x264(iterations: int = 24, seed: int = 5) -> Program:
    """SAD over pixel rows streamed from two 64 KiB frames: loads feeding
    dense ALU chains with heavy temp reuse — long atomic regions, and the
    streams exceed the L1 so the prefetcher and L2 matter."""
    b = ProgramBuilder("525.x264_r")
    r = ireg
    pixels = 65536                   # 512 KiB per frame
    b.words(_HEAP, _lcg_words(seed, pixels, bound=256))
    b.words(_TABLE, _lcg_words(seed + 1, pixels, bound=256))
    b.movi(r(1), iterations)
    b.movi(r(4), 1)
    b.movi(r(12), 0)                 # SAD total
    b.label("frame")
    b.movi(r(2), _HEAP)
    b.movi(r(3), _TABLE)
    b.movi(r(5), pixels // 4)
    b.label("row")
    b.ld(r(6), r(2), 0)
    b.ld(r(7), r(3), 0)
    b.sub(r(8), r(6), r(7))          # r8..r10 are block-local temps,
    b.mul(r(8), r(8), r(8))          # redefined within the block
    b.shr(r(8), r(8), 4)
    b.add(r(12), r(12), r(8))
    b.ld(r(6), r(2), 8)
    b.ld(r(7), r(3), 8)
    b.sub(r(9), r(6), r(7))
    b.mul(r(9), r(9), r(9))
    b.shr(r(9), r(9), 4)
    b.add(r(12), r(12), r(9))
    b.lea(r(2), r(2), 16)
    b.lea(r(3), r(3), 16)
    b.sub(r(5), r(5), r(4))
    b.test(r(5), r(5))
    b.bne("row")
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("frame")
    b.halt()
    return b.build()


def deepsjeng(iterations: int = 64, seed: int = 6) -> Program:
    """Bitboard move generation: long logical chains (and/or/xor/shift)
    with heavy temp redefinition and occasional emptiness branches —
    the deepest atomic regions in the int suite, nearly memory-free."""
    b = ProgramBuilder("531.deepsjeng_r")
    r = ireg
    rng = random.Random(seed)
    tt_words = 131072                # 1 MiB transposition table
    b.words(_HEAP, _lcg_words(seed + 1, 64))
    b.movi(r(1), iterations)
    b.movi(r(2), rng.randrange(1 << 62) | 1)   # occupancy
    b.movi(r(3), rng.randrange(1 << 62) | 2)   # own pieces
    b.movi(r(4), 1)
    b.movi(r(10), 0)                           # move count
    b.movi(r(14), 0)                           # TT score accumulator
    b.movi(r(11), _HEAP)
    b.movi(r(13), (tt_words - 1) * 8)
    b.label("gen")
    # slide attacks: shift/mask chains with temps redefined in-block
    b.shl(r(5), r(2), 1)
    b.or_(r(5), r(5), r(2))
    b.shl(r(6), r(5), 2)
    b.or_(r(6), r(6), r(5))
    b.shl(r(7), r(6), 4)
    b.or_(r(7), r(7), r(6))
    b.not_(r(8), r(3))
    b.and_(r(7), r(7), r(8))
    b.xor(r(5), r(7), r(2))          # r5 redefined (atomic)
    b.and_(r(6), r(5), r(7))         # r6 redefined (atomic)
    b.shr(r(8), r(6), 3)             # r8 redefined (atomic)
    b.xor(r(8), r(8), r(5))
    b.test(r(6), r(6))
    b.beq("no_moves")
    b.add(r(10), r(10), r(4))
    # transposition-table probe at hash(r8): a cold load that blocks
    # commit while the bitboard ALU chains behind it complete
    b.shl(r(9), r(8), 3)
    b.and_(r(9), r(9), r(13))
    b.add(r(9), r(9), r(11))
    b.ld(r(12), r(9), 0)
    b.add(r(14), r(14), r(12))      # score accumulator (off the hot path:
    b.st(r(6), r(9), 8)             # board state below must not depend on
    b.label("no_moves")             # the TT data, or iterations serialize)
    b.mul(r(2), r(2), r(7))
    b.add(r(2), r(2), r(10))
    b.xor(r(3), r(3), r(6))
    b.or_(r(3), r(3), r(4))
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("gen")
    b.halt()
    return b.build()


def leela(iterations: int = 48, seed: int = 7) -> Program:
    """Board scans with conditional accumulation and a small UCT-like
    divide — leela's playout scoring over a 32 KiB board history."""
    b = ProgramBuilder("541.leela_r")
    r = ireg
    board = 131072                   # 1 MiB
    b.words(_HEAP, _lcg_words(seed, board, bound=3))
    b.movi(r(1), iterations)
    b.movi(r(4), 1)
    b.movi(r(8), 0)                  # score
    b.movi(r(9), 2)
    b.label("playout")
    b.movi(r(2), _HEAP)
    b.movi(r(5), 48)
    b.label("scan")
    b.ld(r(6), r(2), 0)
    b.cmp(r(6), r(4))
    b.beq("mine")
    b.cmp(r(6), r(9))
    b.beq("theirs")
    b.jmp("empty")
    b.label("mine")
    b.add(r(8), r(8), r(4))
    b.jmp("empty")
    b.label("theirs")
    b.sub(r(8), r(8), r(4))
    b.label("empty")
    b.lea(r(2), r(2), 64)            # stride one cache line
    b.sub(r(5), r(5), r(4))
    b.test(r(5), r(5))
    b.bne("scan")
    # uct = score / visits (division: exception-causing region breaker)
    b.add(r(10), r(8), r(9))
    b.div(r(11), r(10), r(9))
    b.add(r(8), r(8), r(11))
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("playout")
    b.halt()
    return b.build()


def exchange2(iterations: int = 8, seed: int = 8) -> Program:
    """Recursive permutation search (sudoku-ish): call/ret with manual
    stack spills, heavy integer ALU with temp reuse — exchange2 has
    almost no data memory traffic."""
    b = ProgramBuilder("548.exchange2_r")
    r = ireg
    b.movi(r(1), iterations)
    b.movi(r(4), 1)
    b.movi(r(14), _STACK)
    b.movi(r(8), 0)
    b.label("outer")
    b.movi(r(2), 6)                  # depth
    b.movi(r(3), 0)                  # state
    b.call("recurse")
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("outer")
    b.halt()
    b.label("recurse")
    b.st(LINK_REG, r(14), 0)
    b.st(r(2), r(14), 8)
    b.lea(r(14), r(14), 16)
    # permute step: ALU-only region with temps redefined in-block
    b.shl(r(5), r(3), 1)
    b.xor(r(5), r(5), r(2))
    b.add(r(5), r(5), r(4))
    b.and_(r(6), r(5), r(3))
    b.or_(r(6), r(6), r(5))
    b.shr(r(7), r(6), 2)
    b.xor(r(7), r(7), r(6))
    b.add(r(3), r(7), r(5))
    b.test(r(2), r(2))
    b.beq("base")
    b.sub(r(2), r(2), r(4))
    b.call("recurse")
    b.add(r(2), r(2), r(4))
    b.lint_ignore("df-dead-store")   # epilogue reloads r2 from the spill
    b.label("base")
    b.add(r(8), r(8), r(4))
    b.lea(r(14), r(14), -16)
    b.ld(r(2), r(14), 8)
    b.ld(LINK_REG, r(14), 0)
    b.ret()
    return b.build()


def xz(iterations: int = 32, seed: int = 9) -> Program:
    """LZ77 match finding over a 128 KiB window: byte compares with
    early-exit branches and match-length accumulation."""
    b = ProgramBuilder("557.xz_r")
    r = ireg
    data = 131072                    # 1 MiB
    b.words(_HEAP, _lcg_words(seed, data, bound=4))
    b.movi(r(1), iterations)
    b.movi(r(4), 1)
    b.movi(r(10), 0)                 # total match length
    b.movi(r(12), (data - 1) * 8)
    b.label("search")
    # window and lookahead positions derived from the running hash
    b.shl(r(2), r(10), 3)
    b.and_(r(2), r(2), r(12))
    b.movi(r(11), _HEAP)
    b.add(r(2), r(2), r(11))
    b.lea(r(3), r(2), 1024)
    b.movi(r(5), 12)                 # max compares
    b.movi(r(6), 0)                  # match length
    b.label("compare")
    b.ld(r(7), r(2), 0)
    b.ld(r(8), r(3), 0)
    b.cmp(r(7), r(8))
    b.bne("mismatch")
    b.add(r(6), r(6), r(4))
    b.lea(r(2), r(2), 8)
    b.lea(r(3), r(3), 8)
    b.sub(r(5), r(5), r(4))
    b.test(r(5), r(5))
    b.bne("compare")
    b.label("mismatch")
    b.add(r(10), r(10), r(6))
    # slide window by hash of match length (ALU region, temps reused)
    b.mul(r(9), r(6), r(10))
    b.shr(r(9), r(9), 2)
    b.add(r(9), r(9), r(4))
    b.xor(r(10), r(10), r(9))
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("search")
    b.halt()
    return b.build()


def xalancbmk(iterations: int = 40, seed: int = 10) -> Program:
    """DOM-tree walk over a 128 KiB node pool: child-pointer loads with
    tag-dispatch branches — xalancbmk's template matching."""
    b = ProgramBuilder("523.xalancbmk_r")
    r = ireg
    nodes = 16384                    # 16384 x 64 B = 1 MiB
    rng = random.Random(seed)
    # node i: child pointer at +0, tag at +8, drawn per node in that order
    draws = [rng.randrange(bound) for _ in range(nodes) for bound in (nodes, 3)]
    b.words(_HEAP, [_HEAP + 64 * child for child in draws[0::2]], stride=64)
    b.words(_HEAP + 8, draws[1::2], stride=64)
    b.movi(r(1), iterations)
    b.movi(r(4), 1)
    b.movi(r(8), 0)                  # matches
    b.movi(r(9), 2)
    b.label("walk")
    b.movi(r(2), _HEAP)
    b.movi(r(5), 12)                 # depth
    b.label("descend")
    b.ld(r(6), r(2), 8)              # tag
    b.ld(r(2), r(2), 0)              # child
    b.cmp(r(6), r(4))
    b.beq("text")
    b.cmp(r(6), r(9))
    b.beq("element")
    b.jmp("next_node")
    b.label("text")
    b.add(r(8), r(8), r(4))
    b.jmp("next_node")
    b.label("element")
    b.shl(r(7), r(8), 1)
    b.xor(r(7), r(7), r(6))          # r7 redefined (atomic)
    b.add(r(8), r(8), r(7))
    b.label("next_node")
    b.sub(r(5), r(5), r(4))
    b.test(r(5), r(5))
    b.bne("descend")
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("walk")
    b.halt()
    return b.build()

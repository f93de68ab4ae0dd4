"""SPEC CPU 2017 floating-point-suite stand-in kernels (paper Table 2).

The fp suite exercises the *vector* register file (the paper evaluates
split scalar/vector files; section 3.1 reports the vector file's
lifecycle shares separately).  These kernels use the vector ISA
(vld/vfma/vst...) with scalar loop control, mirroring compiled SPECfp
inner loops: long FMA chains between memory operations, fewer branches
than SPECint, and a few division-heavy kernels (nab, roms) whose vdiv
instructions break atomic regions.

All kernels stream over 128 KiB arrays with a rotating window, so the
data set exceeds the 48 KiB L1D and register pressure builds behind L2
misses — the regime the paper's RF-size sweeps measure.
"""

from __future__ import annotations

from typing import Callable

from ..isa import Program, ProgramBuilder, ireg, vreg
from .kernels_int import _lcg_words

_A = 0x200000
_B = 0x800000
_ARRAY_WORDS = 262144         # 2 MiB per array (exceeds the L2)
_ARRAY_BYTES = _ARRAY_WORDS * 8


def _fill(b: ProgramBuilder, base: int, seed: int, bound: int = 1 << 20) -> None:
    b.words(base, _lcg_words(seed, _ARRAY_WORDS, bound, start=1))


def _streaming_kernel(
    name: str,
    body: Callable[[ProgramBuilder], None],
    iterations: int,
    seed: int,
    blocks: int = 64,
    stride: int = 32,
    miss_every: int = 4,
    prologue: Callable[[ProgramBuilder], None] = None,
) -> Program:
    """Scaffold: a hot compute window plus periodic independent cold loads.

    The *body* (one vectorized block; r2 = source pointer, r3 =
    destination pointer, r4 = 1) runs over a 16 KiB hot window that is
    L1/L2-resident after warmup.  Every ``miss_every`` blocks, an
    *independent* scalar load walks a cold multi-MiB region and misses to
    DRAM.  The cold load blocks in-order commit (and precommit — it may
    fault) while the hot blocks behind it complete out of order: exactly
    the regime of the paper's Figure 5, where registers pile up
    un-released in the baseline and ATR's early release pays off.
    """
    b = ProgramBuilder(name)
    r = ireg
    _fill(b, _A, seed)
    _fill(b, _B, seed + 1)
    hot_mask = 16 * 1024 - 1          # 16 KiB hot window
    cold_stride = 64 * 101            # always a fresh line, sparse banks
    b.movi(r(1), iterations)
    b.movi(r(4), 1)
    b.movi(r(13), 0)                  # hot window offset
    b.movi(r(14), hot_mask)
    b.movi(r(12), _A + _ARRAY_BYTES // 2)  # cold cursor (upper half)
    b.movi(r(10), 0)                  # cold accumulator
    if prologue is not None:
        prologue(b)
    b.label("sweep")
    b.movi(r(2), _A + 64)
    b.add(r(2), r(2), r(13))
    b.movi(r(3), _B + 64)
    b.add(r(3), r(3), r(13))
    b.movi(r(5), blocks)
    b.label("loop")
    for i in range(miss_every):
        body(b)
        b.lea(r(2), r(2), stride)
        b.lea(r(3), r(3), stride)
    # independent cold load: misses to DRAM, blocks commit/precommit
    b.ld(r(11), r(12), 0)
    b.add(r(10), r(10), r(11))
    b.movi(r(11), cold_stride)
    b.add(r(12), r(12), r(11))
    b.movi(r(11), _A + _ARRAY_BYTES // 2)
    b.cmp(r(12), r(11))               # wrap the cold cursor region
    b.bge("no_wrap")
    b.mov(r(12), r(11))
    b.label("no_wrap")
    b.sub(r(5), r(5), r(4))
    b.test(r(5), r(5))
    b.bne("loop")
    # rotate the hot window within 16 KiB (stays resident)
    b.movi(r(6), 512)
    b.add(r(13), r(13), r(6))
    b.and_(r(13), r(13), r(14))
    b.sub(r(1), r(1), r(4))
    b.test(r(1), r(1))
    b.bne("sweep")
    b.halt()
    return b.build()


def bwaves(iterations: int = 40, seed: int = 11) -> Program:
    """1-D wave stencil: u'[i] = a*u[i-1] + b*u[i] + c*u[i+1]."""
    r, v = ireg, vreg

    def prologue(b: ProgramBuilder) -> None:
        b.movi(r(6), 3)
        b.vbroadcast(v(7), r(6))
        b.vbroadcast(v(8), r(4))

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), -32)
        b.vld(v(1), r(2), 0)
        b.vld(v(2), r(2), 32)
        b.vmul(v(3), v(0), v(7))
        b.vfma(v(3), v(1), v(8), v(3))      # v3 redefined (atomic)
        b.vfma(v(3), v(2), v(7), v(3))      # v3 redefined again
        b.vst(v(3), r(3), 0)

    return _streaming_kernel("503.bwaves_r", body, iterations, seed, prologue=prologue)


def cactubssn(iterations: int = 24, seed: int = 12) -> Program:
    """Einstein-equation stencil: many loads, very long FMA chains with
    temporaries redefined mid-chain — the longest atomic regions in fp."""
    r, v = ireg, vreg

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), -64)
        b.vld(v(1), r(2), -32)
        b.vld(v(2), r(2), 0)
        b.vld(v(3), r(2), 32)
        b.vld(v(4), r(2), 64)
        b.vmul(v(5), v(0), v(4))
        b.vfma(v(5), v(1), v(3), v(5))      # v5 chain: redefined twice
        b.vfma(v(5), v(2), v(2), v(5))
        b.vmul(v(6), v(5), v(1))
        b.vfma(v(6), v(5), v(3), v(6))      # v6 redefined
        b.vadd(v(7), v(6), v(5))
        b.vsub(v(8), v(7), v(0))
        b.vfma(v(8), v(8), v(7), v(6))      # v8 redefined
        b.vst(v(8), r(3), 0)

    return _streaming_kernel("507.cactuBSSN_r", body, iterations, seed, blocks=192)


def namd(iterations: int = 24, seed: int = 13) -> Program:
    """Pairwise force loop: one loaded position vector consumed by MANY
    FMA terms (namd drives the high consumer counts in paper Fig. 12)."""
    r, v = ireg, vreg

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), 0)                 # position i
        b.vld(v(1), r(2), 32)
        b.vsub(v(2), v(0), v(1))             # dx: consumed 5x and then
        b.vmul(v(3), v(2), v(2))             # redefined in-block, so its
        b.vfma(v(4), v(2), v(2), v(3))       # chain is an atomic region
        b.vfma(v(4), v(2), v(3), v(4))       # with 5 consumers — namd is
        b.vfma(v(4), v(2), v(4), v(3))       # Fig. 12's outlier
        b.vfma(v(4), v(2), v(3), v(4))
        b.vmul(v(2), v(4), v(4))             # redefine dx (closes region)
        b.vadd(v(5), v(4), v(2))
        b.vst(v(5), r(3), 0)

    return _streaming_kernel("508.namd_r", body, iterations, seed)


def parest(iterations: int = 32, seed: int = 14) -> Program:
    """Sparse matrix-vector product: index load -> gathered load -> FMA."""
    r, v = ireg, vreg

    def body(b: ProgramBuilder) -> None:
        b.ld(r(6), r(2), 0)                  # pseudo column index
        b.movi(r(7), (_ARRAY_WORDS // 2 - 1) * 8)
        b.and_(r(6), r(6), r(7))
        b.movi(r(7), _B)
        b.add(r(6), r(6), r(7))
        b.vld(v(0), r(6), 0)                 # gathered vector
        b.vld(v(1), r(2), 0)                 # matrix values
        b.vfma(v(6), v(0), v(1), v(6))
        b.vst(v(6), r(3), 0)

    def prologue(b: ProgramBuilder) -> None:
        b.movi(r(7), 0)
        b.vbroadcast(v(6), r(7))

    return _streaming_kernel("510.parest_r", body, iterations, seed, prologue=prologue)


def povray(iterations: int = 32, seed: int = 15) -> Program:
    """Ray-sphere intersection: dot products then a discriminant branch —
    povray is the branchiest fp benchmark."""
    r, v = ireg, vreg

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), 0)                 # ray dir
        b.vld(v(1), r(2), 32)                # center - origin
        b.vmul(v(2), v(0), v(1))
        b.vreduce(r(6), v(2))                # b coefficient
        b.vmul(v(3), v(1), v(1))
        b.vreduce(r(7), v(3))                # c coefficient
        b.mul(r(6), r(6), r(6))
        b.cmp(r(6), r(7))
        miss = f"miss_{b.pc}"
        b.blt(miss)
        b.sub(r(8), r(6), r(7))
        b.shr(r(8), r(8), 8)                 # r8 redefined (atomic)
        b.vbroadcast(v(4), r(8))
        b.vfma(v(5), v(4), v(0), v(1))
        b.vst(v(5), r(3), 0)
        b.label(miss)

    return _streaming_kernel("511.povray_r", body, iterations, seed)


def lbm(iterations: int = 32, seed: int = 16) -> Program:
    """Lattice-Boltzmann streaming: load distributions, collide, store to
    shifted locations — the most store-heavy fp kernel."""
    r, v = ireg, vreg

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), 0)
        b.vld(v(1), r(2), 32)
        b.vadd(v(2), v(0), v(1))
        b.vmul(v(3), v(2), v(0))
        b.vsub(v(3), v(3), v(1))             # v3 redefined (atomic)
        b.vst(v(2), r(3), 0)
        b.vst(v(3), r(3), 32)

    return _streaming_kernel("519.lbm_r", body, iterations, seed)


def wrf(iterations: int = 32, seed: int = 17) -> Program:
    """Weather column physics: scalar/vector mix with a conditional
    saturation branch per column."""
    r, v = ireg, vreg

    def prologue(b: ProgramBuilder) -> None:
        b.movi(r(9), 1000)

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), 0)
        b.vmul(v(1), v(0), v(0))
        b.vadd(v(2), v(1), v(0))
        b.vreduce(r(6), v(2))
        b.cmp(r(6), r(9))
        nosat = f"nosat_{b.pc}"
        b.blt(nosat)
        b.shr(r(6), r(6), 4)
        b.label(nosat)
        b.add(r(9), r(9), r(6))
        b.vbroadcast(v(3), r(6))
        b.vfma(v(4), v(3), v(0), v(2))
        b.vst(v(4), r(3), 0)

    return _streaming_kernel("521.wrf_r", body, iterations, seed, prologue=prologue)


def blender(iterations: int = 32, seed: int = 18) -> Program:
    """4x4 matrix-vector transforms: four FMA chains per vertex, pure
    compute between vertex load and store."""
    r, v = ireg, vreg

    def prologue(b: ProgramBuilder) -> None:
        b.movi(r(6), _A)
        b.vld(v(10), r(6), 512)
        b.vld(v(11), r(6), 544)
        b.vld(v(12), r(6), 576)
        b.vld(v(13), r(6), 608)

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), 0)
        b.vmul(v(1), v(0), v(10))
        b.vfma(v(1), v(0), v(11), v(1))      # v1 redefined (atomic)
        b.vmul(v(2), v(0), v(12))
        b.vfma(v(2), v(0), v(13), v(2))      # v2 redefined (atomic)
        b.vadd(v(3), v(1), v(2))
        b.vst(v(3), r(3), 0)

    return _streaming_kernel("526.blender_r", body, iterations, seed, prologue=prologue)


def cam4(iterations: int = 32, seed: int = 19) -> Program:
    """Atmosphere column loop with two-way conditional physics."""
    r, v = ireg, vreg

    def prologue(b: ProgramBuilder) -> None:
        b.movi(r(9), 512)

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), 0)
        b.vreduce(r(6), v(0))
        b.cmp(r(6), r(9))
        cold = f"cold_{b.pc}"
        store = f"store_{b.pc}"
        b.blt(cold)
        b.vmul(v(1), v(0), v(0))
        b.vadd(v(2), v(1), v(0))
        b.jmp(store)
        b.label(cold)
        b.vadd(v(1), v(0), v(0))
        b.vsub(v(2), v(1), v(0))
        b.label(store)
        b.vst(v(2), r(3), 0)

    return _streaming_kernel("527.cam4_r", body, iterations, seed,
                             prologue=prologue)


def imagick(iterations: int = 24, seed: int = 20) -> Program:
    """3-tap convolution over image rows: three loads, FMA reduce, store."""
    r, v = ireg, vreg

    def prologue(b: ProgramBuilder) -> None:
        b.movi(r(6), 4)
        b.vbroadcast(v(9), r(6))

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), -32)
        b.vld(v(1), r(2), 0)
        b.vld(v(2), r(2), 32)
        b.vmul(v(3), v(1), v(9))
        b.vadd(v(4), v(0), v(2))
        b.vfma(v(4), v(4), v(9), v(3))       # v4 redefined (atomic)
        b.vst(v(4), r(3), 0)

    return _streaming_kernel("538.imagick_r", body, iterations, seed,
                             prologue=prologue)


def nab(iterations: int = 24, seed: int = 21) -> Program:
    """Molecular solvation: distance terms with vector DIVIDES — division
    is exception-causing, so nab's regions are short."""
    r, v = ireg, vreg

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), 0)
        b.vld(v(1), r(2), 32)
        b.vsub(v(2), v(0), v(1))
        b.vmul(v(3), v(2), v(2))
        b.vadd(v(4), v(3), v(0))
        b.vdiv(v(5), v(0), v(4))             # 1/r-like term (region breaker)
        b.vfma(v(6), v(5), v(3), v(4))
        b.vst(v(6), r(3), 0)

    return _streaming_kernel("544.nab_r", body, iterations, seed, blocks=192)


def fotonik3d(iterations: int = 32, seed: int = 22) -> Program:
    """FDTD curl update: two-plane stencil, regular and branch-light."""
    r, v = ireg, vreg

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), 0)                 # E
        b.vld(v(1), r(2), -32)               # H left
        b.vld(v(2), r(2), 32)                # H right
        b.vsub(v(3), v(2), v(1))             # curl
        b.vfma(v(3), v(3), v(0), v(0))       # v3 redefined (atomic)
        b.vst(v(3), r(3), 0)

    return _streaming_kernel("549.fotonik3d_r", body, iterations, seed)


def roms(iterations: int = 24, seed: int = 23) -> Program:
    """Ocean model with SELECT-based upwinding and a periodic divide."""
    r, v = ireg, vreg

    def prologue(b: ProgramBuilder) -> None:
        b.movi(r(9), 3)

    def body(b: ProgramBuilder) -> None:
        b.vld(v(0), r(2), 0)
        b.vld(v(1), r(2), 32)
        b.vreduce(r(6), v(0))
        b.vreduce(r(7), v(1))
        b.cmp(r(6), r(7))
        b.select(r(8), r(6), r(7))           # upwind pick
        b.div(r(8), r(8), r(9))              # CFL divide (region breaker)
        b.vbroadcast(v(2), r(8))
        b.vfma(v(3), v(2), v(0), v(1))
        b.vst(v(3), r(3), 0)

    return _streaming_kernel("554.roms_r", body, iterations, seed, blocks=192,
                             prologue=prologue)

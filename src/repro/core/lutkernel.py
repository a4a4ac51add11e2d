"""Optional fused C kernels for the LUT-GEMM forward and backward.

The numpy forward path in :mod:`repro.core.execcore` needs three full
passes over an ``(M, K, C)`` temporary (index build, ``np.take`` gather,
strided reduction), and the retraining backward needs two more gathers
plus two reductions against the upstream gradient.  Those temporaries
dominate both serving latency and retrain epoch time, so this module
JIT-compiles single-pass C kernels at first use:

* ``fused_product_sums`` -- the forward gather-accumulate
  ``acc[m, c] = sum_k lut[wrow[m, k] + xq[k, c]]`` (int64 or int32
  accumulators; pure integer, bit-identical to numpy by construction).

* ``serve_tail`` -- the fused *serving* op: the same gather, then the
  weight-zero-point correction ``A = acc - Z_w * colsum`` in int64 and
  one of two tails, all inside one row loop so the accumulator never
  leaves cache.  The requant tail (a :class:`RequantTail`) applies the
  fixed-point requantization ``(A * M0 + D0 + 2**(shift-1)) >> shift``
  (round half up, arithmetic shift -- the :mod:`repro.nn.requant`
  convention) and the saturating uint8 clamp ``[qlo, qhi]`` (``qlo =
  max(qmin, Z)`` folds the integer ReLU); its per-row constants are
  indexed with a 0/1 stride so per-tensor (size-1) and per-channel
  (size-M) blocks are consumed in place, zero-copy.  The float tail (a
  :class:`FloatTail`) serves a layer whose output leaves the integer
  grid: the exact dequant of ``A``, then optionally the eval BatchNorm,
  the residual add of a block's shortcut and the ReLU, each float
  operation in the unfused plan's numpy order, into float64.  Its float
  constants are one (8, M) block packed at compile time, so one pointer
  slot carries them.

  All are one forward gather: one C body per accumulator width behind
  one packed entry (``gather_call``) and one Python dispatch
  (``_gather``), which reads each operand's address once per call.  The
  serving ops only add a tail, which each finished accumulator row or
  VBMI tile goes through while it is hot.

* ``tail_f64`` -- the same tails, fed by the
  exact-integer float64 accumulator of the rank-1 (product-separable
  LUT) lowering instead of a gather; one inline C tail serves both.

* ``im2col_serve`` / ``fold_input_grad`` -- the conv layers' unfold of a
  uint8 image into the uint8 ``(K, N*L)`` gather operand (``Z_x``
  padding) and its column sums, and its adjoint for the retraining
  backward:
  the fold of the raw activation gradient back onto the image, with the
  zero-point column term, the ``/ s_x`` and the clipped-STE pixel mask
  applied per tap, in numpy's ``col2im`` order (bit-identical, vetted by
  the execcore backward self-check).

* ``fused_backward_grads`` -- the difference-LUT backward: per column
  chunk it reads *both* gradient tables at the shared index and reduces
  against the upstream gradient (``need_gx=False`` skips the activation
  gradient).  Float32 partial sums replicate numpy's reduction orders
  -- the scalar pairwise algorithm for the per-``(m, k)`` sum over
  columns (``buf.sum(axis=2)``) and sequential-over-rows accumulation
  for the activation gradient (``buf.sum(axis=0)``), which the kernel
  writes in place into its float32 ``(K, C)`` output.  The pairwise
  chunk sums match numpy's up to one zero sign: numpy adds a reduction
  into ``+0.0``, so a chunk of 8 or more products that are all ``-0.0``
  reads ``+0.0`` there and ``-0.0`` here.  Per-chunk weight partials
  are merged into float64 from ``+0.0`` in global chunk order, which
  hides that sign, so results are bit-identical to the numpy path
  (verified at runtime by :mod:`repro.core.execcore` before the kernel
  is trusted).

One activation operand: every gather reads ``xq`` as C-contiguous
uint8, the 8-bit grid the LUTs are indexed on, from the unfold to the
last lookup.  A uint8 array passes through without a copy; another
integer array whose extrema lie in ``[0, 255]`` is narrowed once
(:func:`_activation_operand`); an activation off the grid (a NaN
quantized to INT32_MIN) makes the entry point return ``None``, and the
caller runs the numpy reference, which clips the flat index the same
way.

Two gather bodies: both gathers (the forward behind
``fused_product_sums`` and ``serve_tail``, and ``fused_backward_grads``)
have a scalar C loop and an in-register AVX-512 VBMI body.  Each (m, k) reads one fixed
256-entry table row ``table[wrow[m, k] + 0..255]`` for every column, so
the VBMI body holds that row in zmm registers, split into byte planes
(:func:`byte_planes`), and looks up 64 uint8 activations with two
``vpermi2b`` and one byte blend per plane.  The forward's uint16 LUT
row is two planes (eight zmm), with the column tile outermost so a tile
of activations stays in cache across rows.  The backward gathers only
its activation gradient this way: a float32 ``gx`` table row is four
planes (sixteen zmm), and two unpack rounds assemble the floats.  Its
weight gradient needs no gather: for one k and 16 rows the table entry
can only be one of ``max(xq) + 1`` row vectors, so the body transposes
them into a tile and sums with its lanes over rows, in the scalar
pairwise order.  A body runs when every condition holds
(:func:`_gather_body`): the host has VBMI and BW (read once at kernel
load), the caller passed the planes, the in-bounds proof below holds
with ``min(wrow) >= 0``, for the forward
``K <= VBMI_MAX_K`` (its int32 sums cannot overflow),
``C >= VBMI_MIN_C`` (``VBMI_BWD_MIN_C`` for the backward: below these
measured crossovers the per-row costs and the padded 64-lane blocks
outweigh the scalar loop), and the bodies passed their one-time
byte-edge self-check against numpy (:func:`vbmi_trusted`; a mismatch
pins every scalar loop).  Otherwise the scalar loop runs; it is the
only body off x86.  Integer sums are order-free, and the backward body
rounds every float operation in the scalar loop's order, so the two
are bit-identical.  Each call counts its body as
``lutkernel.gather.vbmi`` / ``lutkernel.gather.scalar``.

Index clamping: every gather here must match the numpy path's
``np.take(..., mode="clip")``, including on diverged weights (NaN
weights quantized to INT32_MIN).  Each wrapper first tries to prove
every flat index in range from the operand extrema
(:func:`_gather_in_bounds`; for the backward, against the smaller
gradient table).  When the proof holds -- always, for real operands --
the C loop indexes the tables directly; only when it fails does the
loop clamp each index.  The two loops do the same arithmetic in the
same order, so the choice never changes a result.

Optional threading: ``REPRO_LUTKERNEL_THREADS=N`` splits the scalar
forward over row blocks, the VBMI forward over 128-column tiles (each
thread copies the activation tiles it owns) -- or, with fewer tiles
than threads, over row blocks too -- and both backward bodies over
chunk-aligned column blocks (the VBMI body transposes each activation
row of its chunks, and its table and ``gout`` tiles, into per-thread
scratch).
ctypes releases the GIL for the duration of each call, partitions are
disjoint, and the weight-gradient merge always runs in global chunk
order, so results are bit-identical for every thread count.

Compilation uses the system ``cc``/``gcc`` (no third-party packages)
with ``-ffp-contract=off`` so the compiler cannot fuse the backward's
and the float tail's multiply-adds into FMAs (which would change their
rounding vs numpy).
The shared object is cached in a per-user temp directory keyed by a
source hash.  Everything degrades gracefully: if no compiler is
available or the build fails, the entry points return ``None`` and
callers fall back to the numpy path -- a *failed* build is attempted
once per process and warned about once, never retried per engine
construction.  ``REPRO_NO_CCKERNEL=1`` disables the kernel; the
variable is honored per call, so flipping it mid-process (tests, the
``--no-cckernel`` CLI flag) takes effect immediately.
"""

from __future__ import annotations

import ctypes
import getpass
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings

import numpy as np

from repro.obs.trace import get_tracer

_TRACE = get_tracer()

#: Environment variable disabling the C kernels (honored per call).
NO_CCKERNEL_ENV = "REPRO_NO_CCKERNEL"

#: Environment variable selecting the kernel thread count (default 1).
THREADS_ENV = "REPRO_LUTKERNEL_THREADS"

_KERNEL_SOURCE = r"""
#include <stdint.h>

/* ------------------------------------------------------------------
 * Index clamp replicating ``np.take(..., mode="clip")``: every numpy
 * gather in the engine clips out-of-range indices into the table, so
 * garbage operands (e.g. NaN weights quantizing to INT32_MIN during a
 * diverged training run) degrade exactly like the numpy path instead
 * of reading out of bounds.  Each gather kernel runs it only in its
 * fallback loop, when the caller could not prove every index in range
 * (the ``fast`` flag below).
 */
static inline long clamp_idx(int64_t id, long n)
{
    if (id < 0) return 0;
    if (id >= n) return n - 1;
    return (long) id;
}

/* Bit i set for the first n of 64 byte lanes (none for n <= 0): the
 * load/store mask of a partial 64-byte piece. */
static inline uint64_t first_lanes(long n)
{
    if (n <= 0) return 0;
    return n >= 64 ? ~0ULL : (1ULL << n) - 1;
}

/* ------------------------------------------------------------------
 * The two tails of the forward gather.  Each finished accumulator row
 * (the scalar body) or int32 tile (the VBMI body) of serve_tail,
 * and each row of the rank-1 lowering's float64 sums
 * (tail_f64_call), goes through one of them while it is hot.  Both
 * start from the weight-zero-point correction in int64:
 *
 *   A = acc - zw * colsum
 *
 * The requant tail (fconst == 0) lands A on the next layer's uint8 grid,
 * written to the (M, C) out:
 *
 *   t = A * m0 + d0                                       (int64)
 *   q = (t + half) >> sh, half = sh > 0 ? 1 << (sh - 1) : 0
 *   out = clamp(q, qlo, qhi)                              (uint8)
 *
 * Exactly repro.nn.requant.rounding_right_shift (round half toward +inf
 * via an arithmetic shift; shift == 0 adds no half).  zw_stride /
 * rq_stride are 0 for per-tensor (size-1) constant arrays and 1 for
 * per-channel (size-M) ones, so both layouts are read in place.  qlo
 * already folds the integer ReLU (max(q, Z) == a raised lower clamp,
 * since Z >= qmin).
 *
 * The float tail (fconst set) is the exact dequant of a layer whose
 * output leaves the integer grid, then the float ops the unfused plan
 * runs after it, each in numpy's order (no FMA: -ffp-contract=off):
 *
 *   y = (double) A; y -= w_corr; y += const_corr; y *= scale
 *   y = y + bias                                          (FT_BIAS)
 *   y = ((y - mean) * inv_std) * gamma + beta             (FT_BN)
 *   y = y + resid                                         (FT_RESID)
 *   y = y * (double) (y > 0)                              (FT_RELU)
 *
 * fconst is one (8, M) float64 block, rows w_corr, const_corr, scale,
 * bias, mean, inv_std, gamma, beta (per-tensor constants repeated per
 * row).  resid (the residual block's shortcut) is (M, C) like out: the
 * unfused plan's memory order, which a later BLAS matmul or reduction
 * rounds by, so the caller views both as images without a copy.  The
 * ReLU is the unfused plan's x * (x > 0): -0.0 for a negative y, and a
 * NaN stays NaN.
 *
 * Both tails are verified bit-identical against the numpy references by
 * the execcore serve self-check before either is trusted.  Every field
 * is 8 bytes, so the Python side fills plain int64 slots and no padding
 * can appear; slot order must match lutkernel._tail_slots.
 */
#define FT_BIAS 1
#define FT_BN 2
#define FT_RESID 4
#define FT_RELU 8

typedef struct {
    int64_t out;        /* uint8_t* or double*, (M, C); or 0 */
    int64_t colsum;     /* const int64_t*, (C,): xq.sum(axis=0) */
    int64_t zw;         /* const int64_t*, 1 or M entries */
    int64_t zw_stride;  /* 0 for 1 entry, 1 for M */
    int64_t m0, d0, shift; /* const int64_t*, 1 or M entries each */
    int64_t rq_stride;
    int64_t qlo, qhi;
    int64_t fconst;     /* const double*, (8, M): the float tail, or 0 */
    int64_t fflags;     /* FT_* */
    int64_t resid;      /* const double*, (M, C), with FT_RESID */
    int64_t M, C;
} tail_args;

static inline int64_t requant_half(long sh)
{
    return sh > 0 ? (int64_t) 1 << (sh - 1) : 0;
}

static inline uint8_t requant_clamp(int64_t acc, int64_t zw, int64_t colsum,
                                    int64_t m0, int64_t d0, long sh,
                                    int64_t half, long qlo, long qhi)
{
    const int64_t t = (acc - zw * colsum) * m0 + d0;
    int64_t q = (t + half) >> sh;
    if (q < qlo) q = qlo;
    if (q > qhi) q = qhi;
    return (uint8_t) q;
}

/* The float tail after the dequant, on the w dequantized values of one
 * row segment at o (still in L1): one loop per op present, each with no
 * branch inside, so every pass vectorizes and rounds exactly like the
 * numpy op it replays.  kc points at the row's w_corr entry of the
 * (8, M) block, so kc[j * M] is the row's entry of constant row j. */
static inline void float_tail_rest(double *restrict o, long w, long fl,
                                   const double *kc, long M,
                                   const double *restrict r)
{
    if (fl & FT_BIAS) {
        const double bi = kc[3 * M];
        for (long i = 0; i < w; i++)
            o[i] = o[i] + bi;
    }
    if (fl & FT_BN) {
        const double mu = kc[4 * M], is = kc[5 * M];
        const double ga = kc[6 * M], be = kc[7 * M];
        for (long i = 0; i < w; i++)
            o[i] = ((o[i] - mu) * is) * ga + be;
    }
    if (fl & FT_RESID)
        for (long i = 0; i < w; i++)
            o[i] = o[i] + r[i];
    if (fl & FT_RELU)
        for (long i = 0; i < w; i++)
            o[i] = o[i] * (double) (o[i] > 0);
}

/* The tail of output row m over the w columns from c0, src[i] being the
 * sum of column c0 + i.  One instance per sum type: the scalar loop's
 * accumulator row, the VBMI body's int32 tile, the rank-1 float64 row. */
#define DEFINE_TAIL_ROW(NAME, SRC_T)                                    \
static inline void NAME(const tail_args *t, long m, long c0, long w,  \
                        const SRC_T *restrict src)                      \
{                                                                       \
    const int64_t zw = ((const int64_t *) t->zw)[m * t->zw_stride];     \
    const int64_t *restrict colsum = (const int64_t *) t->colsum + c0;  \
    if (!t->fconst) {                                                   \
        const long rq = m * (long) t->rq_stride;                        \
        const int64_t m0 = ((const int64_t *) t->m0)[rq];               \
        const int64_t d0 = ((const int64_t *) t->d0)[rq];               \
        const long sh = (long) ((const int64_t *) t->shift)[rq];        \
        const int64_t half = requant_half(sh);                          \
        const long qlo = (long) t->qlo, qhi = (long) t->qhi;            \
        uint8_t *restrict orow = (uint8_t *) t->out + m * t->C + c0;    \
        for (long i = 0; i < w; i++)                                    \
            orow[i] = requant_clamp((int64_t) src[i], zw, colsum[i], m0, \
                                    d0, sh, half, qlo, qhi);            \
        return;                                                         \
    }                                                                   \
    const long M = (long) t->M, fl = (long) t->fflags;                 \
    const double *k = (const double *) t->fconst;                      \
    const double wc = k[m], cc = k[M + m], sc = k[2 * M + m];          \
    const long off = m * (long) t->C + c0;                              \
    double *restrict o = (double *) t->out + off;                       \
    for (long i = 0; i < w; i++) {                                      \
        double y = (double) ((int64_t) src[i] - zw * colsum[i]);        \
        y -= wc;                                                        \
        y += cc;                                                        \
        y *= sc;                                                        \
        o[i] = y;                                                       \
    }                                                                   \
    float_tail_rest(o, w, fl, k + m, M,                                 \
                    (const double *) t->resid + (t->resid ? off : 0));  \
}

DEFINE_TAIL_ROW(tail_row_i32, int32_t)
DEFINE_TAIL_ROW(tail_row_i64, int64_t)
DEFINE_TAIL_ROW(tail_row_f64, double)

/* ------------------------------------------------------------------
 * Packed arguments of the forward gather (gather_call, below), which
 * serves every forward entry point.  A serving plan op calls it once
 * per thread's block per sample, and ctypes marshalling of 30-odd
 * individual arguments costs ~20us per call with ndpointer validation
 * -- comparable to the kernel itself on the smaller layers.  Packing
 * them into one block of int64 slots makes the crossing a
 * single-pointer call.  Slot order must match the _gather wrapper in
 * Python.
 */
typedef struct {
    int64_t lut;        /* const int32_t*, n_lut entries */
    int64_t n_lut;
    int64_t wrow;       /* const int64_t*, (M, K): wq * levels */
    int64_t xq;         /* const uint8_t*, (K, C) quantized acts */
    int64_t K, C;
    int64_t fast;       /* the caller's in-bounds proof held */
    int64_t acc_is32;   /* acc is int32_t*, else int64_t* */
    int64_t acc;        /* row m at acc + m * acc_stride */
    int64_t acc_stride; /* C: the (M, C) sums; 0: the tail's scratch row */
    tail_args t;        /* t.out == 0: no tail, the sums are the result */
    int64_t planes;     /* const uint8_t*, or 0: the scalar body */
    int64_t xt;         /* uint8_t*, the VBMI body's tile scratch */
    int64_t m_lo, m_hi; /* this call's rows */
    int64_t c_lo, c_hi; /* this call's columns (the VBMI body's) */
} gather_args;

/* ------------------------------------------------------------------
 * In-register gather body (AVX-512 VBMI).  The forward gather reads,
 * for each (m, k), one fixed 256-entry table row lut[wrow[m, k] + 0..255]
 * for every column, so that row can live in registers instead of being
 * looked up once per column.  The caller (Python) splits a uint16 LUT
 * into two byte planes -- low bytes, then high bytes, each followed by
 * PLANE_PAD bytes so a row load at wrow = n_lut - 1 stays inside the
 * array -- and the body copies the uint8 xq one tile at a time
 * (xq_tile_u8).  Per (m, k) the row's two planes are eight zmm
 * registers; per 64 activations the gather is four vpermi2b (two per
 * plane, 128 bytes each) and two byte blends on index bit 7.  7-bit and
 * 6-bit LUTs take the same path unchanged: the 256 bytes loaded at
 * wrow[m, k] are the flat entries lut[wrow + 0..255] the scalar loop
 * would index, whatever the row length, and the padding covers the
 * load at the last entries.
 *
 * The gathered bytes are summed as uint16 partials per plane (even and
 * odd columns apart, no shuffles), widened into int32 sums every 256
 * steps of K, and put back in column order once, at store: integer sums
 * are order-free, so only the store has to undo the lane permutation.
 * The int32 sums cannot overflow: the wrapper only picks this body when
 * every LUT entry is in [0, 0xFFFF] and K <= 32767.
 *
 * vbmi_tile covers a 128-column tile (two 64-lane sub-tiles sharing
 * each table-row load) for one output row and writes the 128 int32
 * sums, in column order, to res.  Its caller (gather_vbmi) puts the
 * column tile outermost, so the tile's K x 128 bytes of xq stay in cache
 * across all rows of the thread's range.  gather_vbmi_supported is read once at
 * kernel load; the VBMI code is compiled for its target by attribute,
 * so the build needs no extra flag and a non-x86 host compiles stubs.
 */
#define VBMI_TILE 128  /* columns per tile: two 64-lane sub-tiles */
#define PLANE_PAD 256  /* bytes after each plane: one table row */
#define BWD_ROWS 32    /* rows per block of the VBMI gx pass */

#if defined(__x86_64__)
#include <immintrin.h>
#define VBMI_TARGET __attribute__((target("avx512f,avx512bw,avx512vbmi")))

/* Copy the K x 128 tile of the uint8 xq (K, C) starting at column c0,
 * zero-padded past column C, into the per-thread buffer xt (K *
 * VBMI_TILE bytes, 64-byte aligned): two masked 64-byte loads and
 * stores per row.  Each element is copied once per row block: once per
 * call when threads own column tiles, once per thread when fewer tiles
 * than threads split rows.  The tile is contiguous, so it stays in
 * cache across all rows; in the (K, C) layout a power-of-two C would map
 * its K rows onto a few cache sets. */
static inline VBMI_TARGET void xq_tile_u8(const uint8_t *restrict xq,
                                          long K, long C, long c0,
                                          uint8_t *restrict xt)
{
    const __mmask64 lo = first_lanes(C - c0);
    const __mmask64 hi = first_lanes(C - c0 - 64);
    for (long k = 0; k < K; k++) {
        const uint8_t *src = xq + k * C + c0;
        uint8_t *dst = xt + k * VBMI_TILE;
        _mm512_store_si512(dst, _mm512_maskz_loadu_epi8(lo, src));
        _mm512_store_si512(dst + 64, _mm512_maskz_loadu_epi8(hi, src + 64));
    }
}

int gather_vbmi_supported(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512vbmi")
        && __builtin_cpu_supports("avx512bw");
}

/* One (k, 64-lane sub-tile) step: gather the row's low and high bytes
 * for 64 uint8 indices (two vpermi2b per plane, one blend per plane on
 * index bit 7) and add them, zero-extended, to four uint16 partial sums:
 * LE / LO hold the low bytes of the even / odd columns, HE / HO the
 * high bytes. */
#define VBMI_STEP(IDX, LE, LO, HE, HO)                                  \
    do {                                                                \
        const __mmask64 top = _mm512_movepi8_mask(IDX);                 \
        const __m512i lb = _mm512_mask_blend_epi8(top,                  \
            _mm512_permutex2var_epi8(L0, IDX, L1),                      \
            _mm512_permutex2var_epi8(L2, IDX, L3));                     \
        const __m512i hb = _mm512_mask_blend_epi8(top,                  \
            _mm512_permutex2var_epi8(H0, IDX, H1),                      \
            _mm512_permutex2var_epi8(H2, IDX, H3));                     \
        LE = _mm512_add_epi16(LE, _mm512_and_si512(lb, byte));          \
        LO = _mm512_add_epi16(LO, _mm512_srli_epi16(lb, 8));            \
        HE = _mm512_add_epi16(HE, _mm512_and_si512(hb, byte));          \
        HO = _mm512_add_epi16(HO, _mm512_srli_epi16(hb, 8));            \
    } while (0)

/* Fold one sub-tile's uint16 partial sums into its 64 int32 sums
 * acc[0..63] (value = low + 256 * high).  Word w of LE is column 2w, so
 * the dword halves give columns 4d (e0), 4d + 2 (e1), 4d + 1 (o0) and
 * 4d + 3 (o1); two unpack rounds regroup them so that acc[16 j + 4 L + i]
 * holds column 16 L + 4 j + i, the order vbmi_store undoes. */
static inline VBMI_TARGET void vbmi_flush(int32_t *acc, __m512i le,
                                          __m512i lo, __m512i he,
                                          __m512i ho)
{
    const __m512i w16 = _mm512_set1_epi32(0xFFFF);
    const __m512i e0 = _mm512_add_epi32(_mm512_and_si512(le, w16),
        _mm512_slli_epi32(_mm512_and_si512(he, w16), 8));
    const __m512i e1 = _mm512_add_epi32(_mm512_srli_epi32(le, 16),
        _mm512_slli_epi32(_mm512_srli_epi32(he, 16), 8));
    const __m512i o0 = _mm512_add_epi32(_mm512_and_si512(lo, w16),
        _mm512_slli_epi32(_mm512_and_si512(ho, w16), 8));
    const __m512i o1 = _mm512_add_epi32(_mm512_srli_epi32(lo, 16),
        _mm512_slli_epi32(_mm512_srli_epi32(ho, 16), 8));
    const __m512i p = _mm512_unpacklo_epi32(e0, o0);
    const __m512i q = _mm512_unpacklo_epi32(e1, o1);
    const __m512i p2 = _mm512_unpackhi_epi32(e0, o0);
    const __m512i q2 = _mm512_unpackhi_epi32(e1, o1);
    const __m512i part[4] = {
        _mm512_unpacklo_epi64(p, q), _mm512_unpackhi_epi64(p, q),
        _mm512_unpacklo_epi64(p2, q2), _mm512_unpackhi_epi64(p2, q2),
    };
    for (int j = 0; j < 4; j++)
        _mm512_store_si512(acc + 16 * j, _mm512_add_epi32(
            _mm512_load_si512(acc + 16 * j), part[j]));
}

/* 64 sums in column order from the flushed layout (acc j, 128-bit lane
 * L, dword i = column 16 L + 4 j + i): a 4x4 transpose of 128-bit lanes. */
static inline VBMI_TARGET void vbmi_store(int32_t *res, const int32_t *acc)
{
    const __m512i a0 = _mm512_load_si512(acc);
    const __m512i a1 = _mm512_load_si512(acc + 16);
    const __m512i a2 = _mm512_load_si512(acc + 32);
    const __m512i a3 = _mm512_load_si512(acc + 48);
    const __m512i t0 = _mm512_shuffle_i32x4(a0, a1, 0x44);
    const __m512i t1 = _mm512_shuffle_i32x4(a2, a3, 0x44);
    const __m512i t2 = _mm512_shuffle_i32x4(a0, a1, 0xEE);
    const __m512i t3 = _mm512_shuffle_i32x4(a2, a3, 0xEE);
    _mm512_storeu_si512(res, _mm512_shuffle_i32x4(t0, t1, 0x88));
    _mm512_storeu_si512(res + 16, _mm512_shuffle_i32x4(t0, t1, 0xDD));
    _mm512_storeu_si512(res + 32, _mm512_shuffle_i32x4(t2, t3, 0x88));
    _mm512_storeu_si512(res + 48, _mm512_shuffle_i32x4(t2, t3, 0xDD));
}

/* The tile routine: the 128 int32 sums of one output row over one
 * column tile, in column order, into res.  The uint16 partial sums take
 * at most 256 steps (256 * 0xFF < 2**16) before vbmi_flush widens them. */
static inline VBMI_TARGET void vbmi_tile(const uint8_t *restrict lo,
                                         const uint8_t *restrict hi,
                                         const int64_t *restrict wr,
                                         const uint8_t *restrict xt, long K,
                                         int32_t *restrict res)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i byte = _mm512_set1_epi16(0xFF);
    int32_t acc[VBMI_TILE] __attribute__((aligned(64)));
    for (int j = 0; j < VBMI_TILE; j += 16)
        _mm512_store_si512(acc + j, zero);
    for (long k0 = 0; k0 < K; k0 += 256) {
        const long k1 = k0 + 256 < K ? k0 + 256 : K;
        __m512i a0 = zero, a1 = zero, a2 = zero, a3 = zero;
        __m512i a4 = zero, a5 = zero, a6 = zero, a7 = zero;
        for (long k = k0; k < k1; k++, xt += VBMI_TILE) {
            const uint8_t *l = lo + wr[k], *h = hi + wr[k];
            const __m512i L0 = _mm512_loadu_si512(l);
            const __m512i L1 = _mm512_loadu_si512(l + 64);
            const __m512i L2 = _mm512_loadu_si512(l + 128);
            const __m512i L3 = _mm512_loadu_si512(l + 192);
            const __m512i H0 = _mm512_loadu_si512(h);
            const __m512i H1 = _mm512_loadu_si512(h + 64);
            const __m512i H2 = _mm512_loadu_si512(h + 128);
            const __m512i H3 = _mm512_loadu_si512(h + 192);
            const __m512i i0 = _mm512_loadu_si512(xt);
            const __m512i i1 = _mm512_loadu_si512(xt + 64);
            VBMI_STEP(i0, a0, a1, a2, a3);
            VBMI_STEP(i1, a4, a5, a6, a7);
        }
        vbmi_flush(acc, a0, a1, a2, a3);
        vbmi_flush(acc + 64, a4, a5, a6, a7);
    }
    vbmi_store(res, acc);
    vbmi_store(res + 64, acc + 64);
}

/* The VBMI body over rows [m_lo, m_hi) x columns [c_lo, c_hi) (c_lo a
 * multiple of VBMI_TILE): each tile's int32 sums go through the tail,
 * or are stored to the sums, widened to the accumulator width. */
static VBMI_TARGET void gather_vbmi(const gather_args *a,
                                    const int64_t *restrict wrow,
                                    const uint8_t *restrict xq)
{
    const uint8_t *lo = (const uint8_t *) a->planes;
    const uint8_t *hi = lo + a->n_lut + PLANE_PAD;
    uint8_t *xt = (uint8_t *) a->xt;
    const long K = (long) a->K, C = (long) a->C;
    const long m_lo = (long) a->m_lo, m_hi = (long) a->m_hi;
    const long c_hi = (long) a->c_hi, stride = (long) a->acc_stride;
    int32_t res[VBMI_TILE];
    for (long c0 = (long) a->c_lo; c0 < c_hi; c0 += VBMI_TILE) {
        const long w = c_hi - c0 < VBMI_TILE ? c_hi - c0 : VBMI_TILE;
        xq_tile_u8(xq, K, C, c0, xt);
        for (long m = m_lo; m < m_hi; m++) {
            vbmi_tile(lo, hi, wrow + m * K, xt, K, res);
            if (a->t.out) {
                tail_row_i32(&a->t, m, c0, w, res);
            } else if (a->acc_is32) {
                int32_t *o = (int32_t *) a->acc + m * stride + c0;
                for (long i = 0; i < w; i++)
                    o[i] = res[i];
            } else {
                int64_t *o = (int64_t *) a->acc + m * stride + c0;
                for (long i = 0; i < w; i++)
                    o[i] = res[i];
            }
        }
    }
}
#else
int gather_vbmi_supported(void)
{
    return 0;
}

/* Never reached: the wrapper only passes planes on a VBMI host. */
#define gather_vbmi(...) ((void) 0)
#endif

/* ------------------------------------------------------------------
 * The forward gather over rows [m_lo, m_hi), one body for every forward
 * entry point:
 *
 *   acc[m, c] = sum_k lut[wrow[m, k] + xq[k, c]]
 *   out = tail(acc[m, c], zw[m], colsum[c], ...)    (requant or float)
 *
 * Without a tail (t.out == 0, fused_product_sums) the accumulator rows
 * are the (M, C) result, acc_stride C.  With one (serve_tail) each
 * row goes through its tail while it is hot, and acc is the thread's
 * scratch row, acc_stride 0.  Integer arithmetic over
 * disjoint rows: bit-identical to numpy for any row partition, which is
 * what makes threading over row blocks safe.
 *
 * One body per accumulator width: gather_range_i64 and gather_range_i32
 * (half the accumulator traffic).  Callers of the int32 instance must
 * guarantee K * max|lut| < 2**31 (checked in LutGemm.int32_acc_safe);
 * the tail widens each sum to int64 before the correction, so within
 * that bound the two are bit-identical.
 *
 * ``fast`` is a caller-proven in-bounds flag: the Python wrapper
 * (_gather_in_bounds, shared with the backward) checks
 * min(wrow) + min(xq) >= 0 and max(wrow) + max(xq) < n_lut with SIMD
 * numpy reductions (serving plan ops cache the input-independent wrow
 * bounds), which holds for every real operand (wq in [0, levels), the
 * uint8 xq).  When set, the gather indexes the table directly,
 * skipping clamp_idx -- whose cmp/cmov chain sits on the
 * address-generation critical path and costs ~2.7x on conv-shaped
 * gathers; otherwise every lookup goes through clamp_idx, so diverged
 * operands clip exactly like np.take(mode="clip") and the sums are
 * bit-identical either way.  C == 1 (linear single-sample) rows take a
 * scalar reduction with four independent int64 chains instead (inside
 * the int32-safe bound they give the same value as int32 accumulation):
 * the column loop has no parallelism to hide the gather latency, the
 * chains do.
 *
 * acc's restrict matters: without it the accumulator row's store may
 * alias the next xq load and the gather runs serialized (~1.7x).
 *
 * Two bodies: non-NULL planes (the LUT's byte planes, with xt a
 * K * VBMI_TILE-byte scratch tile) select the in-register VBMI body
 * (gather_vbmi, above) over columns [c_lo, c_hi), which the wrapper only
 * passes when the host has VBMI, the proof holds with min(wrow) >= 0,
 * the LUT fits uint16, K < 32768 and C >= VBMI_MIN_C
 * (the measured crossover, so C == 1 never reaches it), and the body
 * passed its self-check.  Otherwise the scalar loops below run over all
 * columns -- the only body off x86.
 */
#define DEFINE_GATHER_RANGE(NAME, ACC_T, TAIL_ROW)                      \
static void NAME(const gather_args *a, const int32_t *restrict lut,     \
                 const int64_t *restrict wrow,                          \
                 const uint8_t *restrict xq, ACC_T *restrict acc)       \
{                                                                       \
    if (a->planes) {                                                    \
        gather_vbmi(a, wrow, xq);                                       \
        return;                                                         \
    }                                                                   \
    const long n_lut = (long) a->n_lut, K = (long) a->K, C = (long) a->C; \
    const long stride = (long) a->acc_stride, fast = (long) a->fast;    \
    const long m_hi = (long) a->m_hi, tail = a->t.out != 0;             \
    for (long m = (long) a->m_lo; m < m_hi; m++) {                      \
        const int64_t *wr = wrow + m * K;                               \
        ACC_T *row = acc + m * stride;                                  \
        if (C == 1) {                                                   \
            int64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;                     \
            long k = 0;                                                 \
            if (fast) {                                                 \
                for (; k + 4 <= K; k += 4) {                            \
                    s0 += lut[wr[k] + xq[k]];                           \
                    s1 += lut[wr[k + 1] + xq[k + 1]];                   \
                    s2 += lut[wr[k + 2] + xq[k + 2]];                   \
                    s3 += lut[wr[k + 3] + xq[k + 3]];                   \
                }                                                       \
                for (; k < K; k++)                                      \
                    s0 += lut[wr[k] + xq[k]];                           \
            } else {                                                    \
                for (; k < K; k++)                                      \
                    s0 += lut[clamp_idx(wr[k] + xq[k], n_lut)];         \
            }                                                           \
            row[0] = (ACC_T) (s0 + s1 + s2 + s3);                       \
        } else {                                                        \
            for (long c = 0; c < C; c++)                                \
                row[c] = 0;                                             \
            if (fast) {                                                 \
                for (long k = 0; k < K; k++) {                          \
                    const int64_t base = wr[k];                         \
                    const uint8_t *xrow = xq + k * C;                   \
                    for (long c = 0; c < C; c++)                        \
                        row[c] += lut[base + xrow[c]];                  \
                }                                                       \
            } else {                                                    \
                for (long k = 0; k < K; k++) {                          \
                    const int64_t base = wr[k];                         \
                    const uint8_t *xrow = xq + k * C;                   \
                    for (long c = 0; c < C; c++)                        \
                        row[c] += lut[clamp_idx(base + xrow[c], n_lut)]; \
                }                                                       \
            }                                                           \
        }                                                               \
        if (tail)                                                       \
            TAIL_ROW(&a->t, m, 0, C, row);                              \
    }                                                                   \
}

DEFINE_GATHER_RANGE(gather_range_i64, int64_t, tail_row_i64)
DEFINE_GATHER_RANGE(gather_range_i32, int32_t, tail_row_i32)

/* The forward gather's one entry point: a thread's block of either
 * forward kernel (see gather_args). */
void gather_call(const gather_args *a)
{
    const int32_t *lut = (const int32_t *) a->lut;
    const int64_t *wrow = (const int64_t *) a->wrow;
    const uint8_t *xq = (const uint8_t *) a->xq;
    if (a->acc_is32)
        gather_range_i32(a, lut, wrow, xq, (int32_t *) a->acc);
    else
        gather_range_i64(a, lut, wrow, xq, (int64_t *) a->acc);
}

/* The tail of an exact-integer float64 accumulator (M, C): the rank-1
 * serving lowering's BLAS matmul a[wq] @ b[xq] leaves every sum an
 * integer below 2**53, so the int64 conversion in the tail is exact.
 * Same tails as the gather (slot order must match lutkernel.tail_f64). */
typedef struct {
    int64_t acc;        /* const double*, (M, C) */
    tail_args t;
} tail_f64_args;

void tail_f64_call(const tail_f64_args *a)
{
    const double *acc = (const double *) a->acc;
    const long M = (long) a->t.M, C = (long) a->t.C;
    for (long m = 0; m < M; m++)
        tail_row_f64(&a->t, m, 0, C, acc + m * C);
}

/* Serving-path im2col: unfold (N, Cin, H, W) uint8 activations into
 * the (K, NC) uint8 gather operand (K = Cin*kh*kw, NC = N*oh*ow),
 * padding with the uint8 activation zero point zx, then sum the operand
 * per column (the zero-point correction operand) in a pass of its own.
 * The operand has the image's dtype, so an output row (the ow bytes of
 * one (k, n, y)) is a strided slice of an image row, copied inline: a
 * memcpy call per 4-32-byte row costs more than the copy.  With AVX-512
 * BW a stride-1 row takes one masked 64-byte load and store per 64
 * pixels, and a stride-2 row one masked load and one word-to-byte
 * narrowing (the even bytes) per 32; the border lanes come from the
 * zero-point vector under the load mask, so no byte outside the image
 * is read.  Rows of up to one piece keep their masks in registers
 * across the image's rows (per-row mask arithmetic measured ~2x slower
 * on 4-32-pixel rows).  Other strides, and hosts without AVX-512 BW,
 * pick their pixels one at a time.  Pure data movement: bit-identical
 * to the numpy unfold by construction, and proven so per platform by
 * the execcore serve self-check. */
typedef struct {
    int64_t x;        /* const uint8_t*, (N, Cin, H, W) C-contiguous */
    int64_t out;      /* uint8_t*, (K, NC) */
    int64_t colsum;   /* int64_t*, (NC,) -- written, not read */
    int64_t N, Cin, H, W;
    int64_t kh, kw, stride, pad, zx;
    int64_t oh, ow;
} im2col_args;

/* The oh output rows of one tap (i, j) over one image plane, written at
 * o; returns o past them.  Output row y reads image row y * stride + r0
 * (r0 = i - pad) when y lies in [y0, y1), the border otherwise, and
 * output pixel xx reads pixel s + xx * stride (s = j - pad). */
static uint8_t *unfold_plane(uint8_t *restrict o,
                             const uint8_t *restrict plane, long r0,
                             long y0, long y1, long oh, long ow,
                             long stride, long W, long s, uint8_t zx)
{
    for (long y = 0; y < oh; y++, o += ow) {
        const int inside = y >= y0 && y < y1;
        const uint8_t *xrow = inside ? plane + (y * stride + r0) * W : plane;
        for (long xx = 0; xx < ow; xx++) {
            const long xs = s + xx * stride;
            o[xx] = (!inside || xs < 0 || xs >= W) ? zx : xrow[xs];
        }
    }
    return o;
}

#if defined(__AVX512BW__) && defined(__AVX512VL__)
#define UNFOLD_SIMD 1

/* Lanes of a 64-pixel piece from pixel s0 that lie in a W-pixel row. */
static inline __mmask64 row_lanes(long s0, long W)
{
    return first_lanes(W - s0) & ~first_lanes(-s0);
}

/* One loaded piece v into the output under the store mask st: all 64
 * bytes at stride 1, the 32 even bytes at stride 2. */
static inline void unfold_store(uint8_t *o, __mmask64 st, __m512i v,
                                long stride)
{
    if (stride == 1)
        _mm512_mask_storeu_epi8(o, st, v);
    else
        _mm256_mask_storeu_epi8(o, (__mmask32) st, _mm512_cvtepi16_epi8(v));
}

/* unfold_plane at stride 1 or 2, a piece (64 / stride output pixels) at
 * a time; z holds zx in every lane.  Addresses are formed as integers:
 * a piece may start before its row (s0 < 0), where its mask is clear. */
static uint8_t *unfold_plane_simd(uint8_t *restrict o,
                                  const uint8_t *restrict plane, long r0,
                                  long y0, long y1, long oh, long ow,
                                  long stride, long W, long s, __m512i z)
{
    const long step = 64 / stride;
    const uintptr_t base = (uintptr_t) plane + r0 * W + s;
    if (ow <= step) {
        const __mmask64 in = row_lanes(s, W), st = first_lanes(ow);
        long y = 0;
        for (; y < y0; y++, o += ow)
            unfold_store(o, st, z, stride);
        for (; y < y1; y++, o += ow)
            unfold_store(o, st, _mm512_mask_loadu_epi8(
                z, in, (const void *) (base + y * stride * W)), stride);
        for (; y < oh; y++, o += ow)
            unfold_store(o, st, z, stride);
        return o;
    }
    for (long y = 0; y < oh; y++, o += ow)
        for (long x0 = 0; x0 < ow; x0 += step) {
            const long s0 = s + x0 * stride;
            const __mmask64 in = y < y0 || y >= y1 ? 0 : row_lanes(s0, W);
            unfold_store(o + x0, first_lanes(ow - x0),
                         _mm512_mask_loadu_epi8(z, in, (const void *) (
                             base + y * stride * W + x0 * stride)),
                         stride);
        }
    return o;
}
#endif

/* colsum[col] = sum_k out[k, col] over the (K, NC) operand: per block of
 * columns, uint16 partial sums over at most 256 rows (256 * 255 < 2**16),
 * widened into the int64 sums. */
#define COLSUM_BLOCK 2048
static void unfold_colsum(const uint8_t *restrict out, long K, long NC,
                          int64_t *restrict colsum)
{
    uint16_t part[COLSUM_BLOCK];
    for (long c0 = 0; c0 < NC; c0 += COLSUM_BLOCK) {
        const long w = NC - c0 < COLSUM_BLOCK ? NC - c0 : COLSUM_BLOCK;
        int64_t *restrict cs = colsum + c0;
        for (long i = 0; i < w; i++)
            cs[i] = 0;
        for (long k0 = 0; k0 < K; k0 += 256) {
            const long k1 = k0 + 256 < K ? k0 + 256 : K;
            for (long i = 0; i < w; i++)
                part[i] = 0;
            for (long k = k0; k < k1; k++) {
                const uint8_t *restrict row = out + k * NC + c0;
                for (long i = 0; i < w; i++)
                    part[i] += row[i];
            }
            for (long i = 0; i < w; i++)
                cs[i] += part[i];
        }
    }
}

void im2col_serve_call(const im2col_args *a)
{
    const uint8_t *x = (const uint8_t *) a->x;
    const long N = (long) a->N, Cin = (long) a->Cin;
    const long H = (long) a->H, W = (long) a->W;
    const long kh = (long) a->kh, kw = (long) a->kw;
    const long stride = (long) a->stride, pad = (long) a->pad;
    const long oh = (long) a->oh, ow = (long) a->ow;
    const uint8_t zx = (uint8_t) a->zx;
    uint8_t *const out = (uint8_t *) a->out;
    uint8_t *o = out;
#ifdef UNFOLD_SIMD
    const __m512i z = _mm512_set1_epi8((char) zx);
#endif
    for (long ci = 0; ci < Cin; ci++)
    for (long i = 0; i < kh; i++) {
        /* Output rows [y0, y1) read an image row, the rest the border. */
        long y0 = pad - i > 0 ? (pad - i + stride - 1) / stride : 0;
        long y1 = H + pad - i > 0 ? (H + pad - i + stride - 1) / stride : 0;
        if (y0 > oh) y0 = oh;
        if (y1 > oh) y1 = oh;
        if (y1 < y0) y1 = y0;
        /* Output row k = (ci*kh + i)*kw + j: o walks its NC columns
         * (nn, y, xx) in order. */
        for (long j = 0; j < kw; j++)
        for (long nn = 0; nn < N; nn++) {
            const uint8_t *plane = x + (nn * Cin + ci) * H * W;
#ifdef UNFOLD_SIMD
            if (stride <= 2) {
                o = unfold_plane_simd(o, plane, i - pad, y0, y1, oh, ow,
                                      stride, W, j - pad, z);
                continue;
            }
#endif
            o = unfold_plane(o, plane, i - pad, y0, y1, oh, ow, stride, W,
                             j - pad, zx);
        }
    }
    unfold_colsum(out, Cin * kh * kw, N * oh * ow, (int64_t *) a->colsum);
}

/* Input-gradient fold of an approximate conv layer: the adjoint of the
 * unfold above, fused with the tail of Eq. 9.  gx is the engine's raw
 * (K, NC) activation gradient in im2col_serve_call's layout (float32
 * from the LUT backward, float64 from the STE fast path: one body,
 * instantiated for each) and zcol its (NC,) zero-point column term.
 * Each tap adds
 *
 *     (((double) gx[k, col] - zcol[col]) / sx) * mask[pixel]
 *
 * into out[pixel] of the (N, Cin, H, W) input gradient, and every pixel
 * starts at +0.0.  A float32 gx widens exactly, as numpy's float32 -
 * float64 subtraction does.  Per pixel the taps arrive in ascending
 * (i, j), the order of numpy's col2im loop, and each operation rounds
 * once, as numpy's separate passes do (-ffp-contract=off, a true
 * division), so the result is bit-identical to the numpy fold, signed
 * zeros included.  Taps landing in the padding are skipped (col2im crops
 * them).  Images [n_lo, n_hi) only, so threads write disjoint outputs;
 * one (n, ci) plane stays in L1 across its kh * kw taps. */
#define FOLD_INPUT_GRAD(NAME, GX_T)                                      \
void NAME(const GX_T *restrict gx, const double *restrict zcol,         \
          const uint8_t *restrict mask, double *restrict out, double sx,\
          long N, long Cin, long H, long W, long kh, long kw,           \
          long stride, long pad, long oh, long ow, long n_lo, long n_hi)\
{                                                                       \
    const long L = oh * ow, NC = N * L, HW = H * W;                     \
    for (long nn = n_lo; nn < n_hi; nn++)                               \
    for (long ci = 0; ci < Cin; ci++) {                                 \
        double *restrict o = out + (nn * Cin + ci) * HW;                \
        const uint8_t *restrict mk = mask + (nn * Cin + ci) * HW;       \
        const double *restrict z = zcol + nn * L;                       \
        for (long p = 0; p < HW; p++)                                   \
            o[p] = 0.0;                                                 \
        for (long i = 0; i < kh; i++)                                   \
        for (long j = 0; j < kw; j++) {                                 \
            const GX_T *restrict g = gx + ((ci * kh + i) * kw + j) * NC \
                                        + nn * L;                       \
            /* Output columns whose tap lands inside the image. */      \
            long x0 = pad - j > 0 ? (pad - j + stride - 1) / stride : 0;\
            long x1 = W + pad - j > 0                                   \
                      ? (W + pad - j + stride - 1) / stride : 0;        \
            if (x1 > ow) x1 = ow;                                       \
            const long off = j - pad;                                   \
            for (long y = 0; y < oh; y++) {                             \
                const long ys = y * stride + i - pad;                   \
                if (ys < 0 || ys >= H) continue;                        \
                const GX_T *restrict gr = g + y * ow;                   \
                const double *restrict zr = z + y * ow;                 \
                double *restrict orow = o + ys * W;                     \
                const uint8_t *restrict mrow = mk + ys * W;             \
                if (stride == 1) {                                      \
                    for (long xx = x0; xx < x1; xx++)                   \
                        orow[xx + off] +=                               \
                            (((double) gr[xx] - zr[xx]) / sx)           \
                            * (double) mrow[xx + off];                  \
                } else {                                                \
                    for (long xx = x0; xx < x1; xx++) {                 \
                        const long xs = xx * stride + off;              \
                        orow[xs] += (((double) gr[xx] - zr[xx]) / sx)   \
                                    * (double) mrow[xs];                \
                    }                                                   \
                }                                                       \
            }                                                           \
        }                                                               \
    }                                                                   \
}

FOLD_INPUT_GRAD(fold_input_grad_range_f32, float)
FOLD_INPUT_GRAD(fold_input_grad_range_f64, double)

/* ------------------------------------------------------------------
 * numpy's scalar pairwise summation (umath loops.c.src), float32.
 * Reproduced operation-for-operation so the per-(m, k) column-chunk
 * sum below matches ``buf.sum(axis=2)`` on the numpy path, up to one
 * zero sign: numpy adds a reduction into +0.0, so a chunk of 8 or more
 * products that are all -0.0 sums to +0.0 there and to -0.0 here.  The
 * float64 merge into +0.0 hides that sign, so the merged gw is
 * bit-identical.  PW_BLOCKSIZE = 128, 8-way unrolled inner block.
 */
static float pairwise_sum_f32(const float *a, long n)
{
    if (n < 8) {
        float res = 0.0f;
        for (long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    else if (n <= 128) {
        float r[8];
        long i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        float res = ((r[0] + r[1]) + (r[2] + r[3]))
                  + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    else {
        long n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum_f32(a, n2) + pairwise_sum_f32(a + n2, n - n2);
    }
}

/* ------------------------------------------------------------------
 * In-register backward body (AVX-512 VBMI).  Its two sums put their
 * SIMD lanes on different axes.
 *
 * gx, lanes over columns (bwd_pass): like the forward, each (m, k)
 * reads one fixed 256-entry row of the gx table for every column.  The
 * float32 table is split into four byte planes (byte_planes, bytes
 * 0..3 of each entry's bit pattern, each plane followed by PLANE_PAD
 * bytes), so one table row is sixteen zmm registers.  Per 64 lookups a
 * plane costs two vpermi2b and one blend on index bit 7, and two unpack
 * rounds (epi8, then epi16) assemble the four byte vectors into four
 * float vectors.  The unpacks are lane-local: float vector j, 128-bit
 * lane L, dword i holds the lookup of index byte 16 L + 4 j + i.  Column
 * order needs column 16 j + 4 L + i there, so xq_row_u8 applies that
 * 4x4 transpose (128-bit lane L against dword group j) to the index
 * bytes as it copies them, once per index row, and every gathered
 * float vector comes out in column order.  Each gx element adds its
 * products in ascending m from 0.0f, as the scalar loop does, straight
 * into the float32 output row: within a block of BWD_ROWS rows the loop
 * runs k outermost, so the chunk's slice of one gx row and one transposed
 * index row stay in L1 across the block's rows, and blocks run in
 * ascending m.  A last, partial 64-lane block loads and stores under a
 * mask, so it never touches another chunk's (or thread's) columns.
 *
 * gw, lanes over rows (no gather): for one k and a block of GW_LANES
 * rows, the gw table entry gwtab[wrow[m, k] + x] can only be one of
 * xmax + 1 row vectors, one per activation value x <= xmax = max(xq).
 * So per chunk the block's gout is transposed once into
 * gT[c][lane] = gout[m0 + lane, c0 + c], and per k the block's table
 * rows into T[v][lane] = gwtab[wrow[m0 + lane, k] + v] for v <= xmax
 * only: the in-bounds proof covers exactly those reads, and the float
 * tables carry no padding.  Each lane then sums T[xq[k, c]][lane] *
 * gT[c][lane] over the chunk's columns in pairwise_sum_f32's recursion
 * (lane_pairwise), so every lane adds in the scalar loop's order.  The
 * ks go in pairs: T tiles for k and k + 1 side by side, and one
 * recursion (lane_pairwise2) sums both, loading each gT column once
 * (gT is 64 KB at 1024 columns, more than L1); an odd last k sums
 * alone.  Dead lanes of a last block with M % GW_LANES != 0 read the
 * block's first row and are never stored.
 *
 * Float order is the scalar loop's in both: each product rounds once,
 * table entry first (table entry * gout, no FMA: -ffp-contract=off).
 */
#define GW_LANES 16   /* rows per block of the gw sum: one per lane */
#define GW_VALUES 256 /* rows of T: one per uint8 activation value */

#if defined(__x86_64__)
/* The cc uint8 columns at src (one row of xq) into dst (64-byte
 * aligned, cc rounded up to a multiple of 64, zero past cc), transposed
 * in 4x4 blocks of dwords: index byte 16 L + 4 j + i of each 64-column
 * block holds column 16 j + 4 L + i.  One masked load and one dword
 * permute per 64 columns. */
static inline VBMI_TARGET void xq_row_u8(const uint8_t *restrict src,
                                         long cc, uint8_t *restrict dst)
{
    const __m512i order = _mm512_set_epi32(15, 11, 7, 3, 14, 10, 6, 2,
                                           13, 9, 5, 1, 12, 8, 4, 0);
    for (long b = 0; b < cc; b += 64)
        _mm512_store_si512(dst + b, _mm512_permutexvar_epi32(
            order, _mm512_maskz_loadu_epi8(first_lanes(cc - b), src + b)));
}

/* The 64 bytes of one plane (quarters Q0..Q3) at the indices idx. */
#define PLANE_BYTES(Q0, Q1, Q2, Q3)                                     \
    _mm512_mask_blend_epi8(top, _mm512_permutex2var_epi8(Q0, idx, Q1),  \
                           _mm512_permutex2var_epi8(Q2, idx, Q3))

/* The 64 floats row[xt[b + 0..63]], in column order, into F[0..3]: four
 * plane lookups, then two unpack rounds (see above). */
#define ROW_FLOATS(F, B)                                                \
    __m512 F[4];                                                        \
    do {                                                                \
        const __m512i idx = _mm512_load_si512(xt + (B));                \
        const __mmask64 top = _mm512_movepi8_mask(idx);                 \
        const __m512i p0 = PLANE_BYTES(a0, a1, a2, a3);                 \
        const __m512i p1 = PLANE_BYTES(b0, b1, b2, b3);                 \
        const __m512i p2 = PLANE_BYTES(c0, c1, c2, c3);                 \
        const __m512i p3 = PLANE_BYTES(d0, d1, d2, d3);                 \
        const __m512i lo01 = _mm512_unpacklo_epi8(p0, p1);              \
        const __m512i hi01 = _mm512_unpackhi_epi8(p0, p1);              \
        const __m512i lo23 = _mm512_unpacklo_epi8(p2, p3);              \
        const __m512i hi23 = _mm512_unpackhi_epi8(p2, p3);              \
        F[0] = _mm512_castsi512_ps(_mm512_unpacklo_epi16(lo01, lo23));  \
        F[1] = _mm512_castsi512_ps(_mm512_unpackhi_epi16(lo01, lo23));  \
        F[2] = _mm512_castsi512_ps(_mm512_unpacklo_epi16(hi01, hi23));  \
        F[3] = _mm512_castsi512_ps(_mm512_unpackhi_epi16(hi01, hi23));  \
    } while (0)

/* out[0..15] += prod. */
static inline VBMI_TARGET void bwd_add(float *o, __m512 prod)
{
    _mm512_storeu_ps(o, _mm512_add_ps(_mm512_loadu_ps(o), prod));
}

/* One pass of the gx table row at row (plane stride ps) over the
 * chunk's cc columns: out[c] += row[xt[c]] * g[c].  The last, partial
 * block reads gout and reads and writes out only below cc (masked). */
static inline VBMI_TARGET void bwd_pass(const uint8_t *restrict row, long ps,
                                        const uint8_t *restrict xt,
                                        const float *restrict g, long cc,
                                        float *restrict out)
{
    const __m512i a0 = _mm512_loadu_si512(row);
    const __m512i a1 = _mm512_loadu_si512(row + 64);
    const __m512i a2 = _mm512_loadu_si512(row + 128);
    const __m512i a3 = _mm512_loadu_si512(row + 192);
    const __m512i b0 = _mm512_loadu_si512(row + ps);
    const __m512i b1 = _mm512_loadu_si512(row + ps + 64);
    const __m512i b2 = _mm512_loadu_si512(row + ps + 128);
    const __m512i b3 = _mm512_loadu_si512(row + ps + 192);
    const __m512i c0 = _mm512_loadu_si512(row + 2 * ps);
    const __m512i c1 = _mm512_loadu_si512(row + 2 * ps + 64);
    const __m512i c2 = _mm512_loadu_si512(row + 2 * ps + 128);
    const __m512i c3 = _mm512_loadu_si512(row + 2 * ps + 192);
    const __m512i d0 = _mm512_loadu_si512(row + 3 * ps);
    const __m512i d1 = _mm512_loadu_si512(row + 3 * ps + 64);
    const __m512i d2 = _mm512_loadu_si512(row + 3 * ps + 128);
    const __m512i d3 = _mm512_loadu_si512(row + 3 * ps + 192);
    long b = 0;
    for (; b + 64 <= cc; b += 64) {
        ROW_FLOATS(f, b);
        for (int j = 0; j < 4; j++)
            bwd_add(out + b + 16 * j,
                    _mm512_mul_ps(f[j], _mm512_loadu_ps(g + b + 16 * j)));
    }
    if (b < cc) {
        ROW_FLOATS(f, b);
        const __mmask64 live = (1ULL << (cc - b)) - 1;
        for (int j = 0; j < 4; j++) {
            const __mmask16 mj = (__mmask16) (live >> (16 * j));
            float *o = out + b + 16 * j;
            const __m512 prod = _mm512_mul_ps(
                f[j], _mm512_maskz_loadu_ps(mj, g + b + 16 * j));
            _mm512_mask_storeu_ps(
                o, mj, _mm512_add_ps(_mm512_maskz_loadu_ps(mj, o), prod));
        }
    }
}

/* gx over columns [c_lo, c_hi) (chunk-aligned), see above, written in
 * place into the (K, C) float32 gx.  xt (64-byte aligned) holds the
 * chunk width rounded up to a multiple of 64 index bytes. */
static VBMI_TARGET void backward_gx_vbmi(
    const uint8_t *restrict planes, long n_gx,
    const int64_t *restrict wrow, const uint8_t *restrict xq,
    const float *restrict gout, float *restrict gx,
    uint8_t *restrict xt, long M, long K, long C,
    long chunk, long c_lo, long c_hi)
{
    const long ps = n_gx + PLANE_PAD;
    for (long c0 = c_lo; c0 < c_hi; c0 += chunk) {
        const long cc = (c0 + chunk < c_hi ? c0 + chunk : c_hi) - c0;
        for (long m0 = 0; m0 < M; m0 += BWD_ROWS) {
            const long m1 = m0 + BWD_ROWS < M ? m0 + BWD_ROWS : M;
            for (long k = 0; k < K; k++) {
                float *gxr = gx + k * C + c0;
                if (m0 == 0)
                    for (long i = 0; i < cc; i++)
                        gxr[i] = 0.0f;
                xq_row_u8(xq + k * C + c0, cc, xt);
                for (long m = m0; m < m1; m++)
                    bwd_pass(planes + wrow[m * K + k], ps, xt,
                             gout + m * C + c0, cc, gxr);
            }
        }
    }
}

/* Bit j set for the first n of 16 columns. */
static inline __mmask16 first_cols(long n)
{
    return n >= 16 ? (__mmask16) 0xFFFF : (__mmask16) ((1u << n) - 1);
}

/* dst[16 j + i] = src[i][off + j] for i, j < 16: a 16 x 16 float
 * transpose of the columns [off, off + 16) of 16 rows, reading column j
 * only where bit j of live is set (zero elsewhere).  dst is 64-byte
 * aligned. */
static inline VBMI_TARGET void transpose16(const float *const *src, long off,
                                           __mmask16 live,
                                           float *restrict dst)
{
    __m512 r[16], t[16];
    for (int i = 0; i < 16; i++)
        r[i] = _mm512_maskz_loadu_ps(live, src[i] + off);
    for (int i = 0; i < 16; i += 2) {
        t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
    }
    for (int i = 0; i < 16; i += 4)
        for (int h = 0; h < 2; h++) {
            const __m512d a = _mm512_castps_pd(t[i + h]);
            const __m512d b = _mm512_castps_pd(t[i + h + 2]);
            r[i + 2 * h] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, b));
            r[i + 2 * h + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, b));
        }
    /* r[4 q + j], 128-bit lane L: column 4 L + j of rows 4 q .. 4 q + 3. */
    for (int j = 0; j < 4; j++) {
        const __m512 u = _mm512_shuffle_f32x4(r[j], r[4 + j], 0x88);
        const __m512 w = _mm512_shuffle_f32x4(r[8 + j], r[12 + j], 0x88);
        const __m512 u2 = _mm512_shuffle_f32x4(r[j], r[4 + j], 0xDD);
        const __m512 w2 = _mm512_shuffle_f32x4(r[8 + j], r[12 + j], 0xDD);
        float *d = dst + 16 * j;
        _mm512_store_ps(d, _mm512_shuffle_f32x4(u, w, 0x88));
        _mm512_store_ps(d + 64, _mm512_shuffle_f32x4(u2, w2, 0x88));
        _mm512_store_ps(d + 128, _mm512_shuffle_f32x4(u, w, 0xDD));
        _mm512_store_ps(d + 192, _mm512_shuffle_f32x4(u2, w2, 0xDD));
    }
}

/* The 16 lanes' products of column i: T[x[i]] * gT[i], table first. */
static inline VBMI_TARGET __m512 lane_prod(const float *restrict T,
                                           const float *restrict gT,
                                           const uint8_t *restrict x, long i)
{
    return _mm512_mul_ps(_mm512_load_ps(T + GW_LANES * (long) x[i]),
                         _mm512_load_ps(gT + GW_LANES * i));
}

/* pairwise_sum_f32 of each lane's n products, operation for operation:
 * an n < 8 sum starts from +0.0f, a leaf's eight accumulators start as
 * its first eight products, and longer runs split at n / 2 rounded
 * down to a multiple of 8. */
static VBMI_TARGET __m512 lane_pairwise(const float *restrict T,
                                        const float *restrict gT,
                                        const uint8_t *restrict x, long n)
{
    if (n < 8) {
        __m512 res = _mm512_setzero_ps();
        for (long i = 0; i < n; i++)
            res = _mm512_add_ps(res, lane_prod(T, gT, x, i));
        return res;
    }
    if (n <= 128) {
        __m512 r[8];
        long i;
        for (int j = 0; j < 8; j++)
            r[j] = lane_prod(T, gT, x, j);
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] = _mm512_add_ps(r[j], lane_prod(T, gT, x, i + j));
        __m512 res = _mm512_add_ps(
            _mm512_add_ps(_mm512_add_ps(r[0], r[1]),
                          _mm512_add_ps(r[2], r[3])),
            _mm512_add_ps(_mm512_add_ps(r[4], r[5]),
                          _mm512_add_ps(r[6], r[7])));
        for (; i < n; i++)
            res = _mm512_add_ps(res, lane_prod(T, gT, x, i));
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return _mm512_add_ps(lane_pairwise(T, gT, x, n2),
                         lane_pairwise(T, gT + GW_LANES * n2, x + n2, n - n2));
}

/* lane_pairwise for two ks at once, sharing each gT load: T0 / x0 and
 * T1 / x1 are the two ks' tiles and activation rows, and each sum runs
 * lane_pairwise's operations in its order, into *s0 and *s1. */
static VBMI_TARGET void lane_pairwise2(const float *restrict T0,
                                       const float *restrict T1,
                                       const float *restrict gT,
                                       const uint8_t *restrict x0,
                                       const uint8_t *restrict x1, long n,
                                       __m512 *s0, __m512 *s1)
{
#define PROD2(I)                                                        \
    const __m512 g = _mm512_load_ps(gT + GW_LANES * (I));               \
    const __m512 p0 = _mm512_mul_ps(                                    \
        _mm512_load_ps(T0 + GW_LANES * (long) x0[I]), g);               \
    const __m512 p1 = _mm512_mul_ps(                                    \
        _mm512_load_ps(T1 + GW_LANES * (long) x1[I]), g)
    if (n < 8) {
        __m512 a = _mm512_setzero_ps(), b = _mm512_setzero_ps();
        for (long i = 0; i < n; i++) {
            PROD2(i);
            a = _mm512_add_ps(a, p0);
            b = _mm512_add_ps(b, p1);
        }
        *s0 = a;
        *s1 = b;
        return;
    }
    if (n <= 128) {
        __m512 r[8], q[8];
        long i;
        for (int j = 0; j < 8; j++) {
            PROD2(j);
            r[j] = p0;
            q[j] = p1;
        }
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++) {
                PROD2(i + j);
                r[j] = _mm512_add_ps(r[j], p0);
                q[j] = _mm512_add_ps(q[j], p1);
            }
        __m512 a = _mm512_add_ps(
            _mm512_add_ps(_mm512_add_ps(r[0], r[1]),
                          _mm512_add_ps(r[2], r[3])),
            _mm512_add_ps(_mm512_add_ps(r[4], r[5]),
                          _mm512_add_ps(r[6], r[7])));
        __m512 b = _mm512_add_ps(
            _mm512_add_ps(_mm512_add_ps(q[0], q[1]),
                          _mm512_add_ps(q[2], q[3])),
            _mm512_add_ps(_mm512_add_ps(q[4], q[5]),
                          _mm512_add_ps(q[6], q[7])));
        for (; i < n; i++) {
            PROD2(i);
            a = _mm512_add_ps(a, p0);
            b = _mm512_add_ps(b, p1);
        }
        *s0 = a;
        *s1 = b;
        return;
    }
#undef PROD2
    long n2 = n / 2;
    n2 -= n2 % 8;
    __m512 a0, b0, a1, b1;
    lane_pairwise2(T0, T1, gT, x0, x1, n2, &a0, &b0);
    lane_pairwise2(T0, T1, gT + GW_LANES * n2, x0 + n2, x1 + n2, n - n2,
                   &a1, &b1);
    *s0 = _mm512_add_ps(a0, a1);
    *s1 = _mm512_add_ps(b0, b1);
}

/* The T tile of k for the block of rows m0 (live of them) into T. */
static inline VBMI_TARGET void table_tile(const float *restrict gwtab,
                                          const int64_t *restrict wrow,
                                          long m0, long live, long K, long k,
                                          long xmax, float *restrict T)
{
    const float *rows[GW_LANES];
    for (long l = 0; l < GW_LANES; l++)
        rows[l] = gwtab + wrow[(m0 + (l < live ? l : 0)) * K + k];
    for (long v = 0; v <= xmax; v += 16)
        transpose16(rows, v, first_cols(xmax + 1 - v), T + GW_LANES * v);
}

/* gw over columns [c_lo, c_hi) (chunk-aligned), see above.  tile
 * (64-byte aligned) holds two T tiles, GW_VALUES x GW_LANES floats each,
 * then gT, the chunk width rounded up to 16 times GW_LANES floats. */
static VBMI_TARGET void backward_gw_vbmi(
    const float *restrict gwtab, const int64_t *restrict wrow,
    const uint8_t *restrict xq, const float *restrict gout,
    float *restrict gw_part, float *restrict tile, long M, long K,
    long C, long chunk, long xmax, long c_lo, long c_hi)
{
    float *T0 = tile, *T1 = tile + GW_VALUES * GW_LANES;
    float *gT = tile + 2 * GW_VALUES * GW_LANES;
    const float *rows[GW_LANES];
    float sums[2][GW_LANES] __attribute__((aligned(64)));
    for (long c0 = c_lo; c0 < c_hi; c0 += chunk) {
        const long cc = (c0 + chunk < c_hi ? c0 + chunk : c_hi) - c0;
        float *gwp = gw_part + (c0 / chunk) * M * K;
        for (long m0 = 0; m0 < M; m0 += GW_LANES) {
            const long live = M - m0 < GW_LANES ? M - m0 : GW_LANES;
            for (long l = 0; l < GW_LANES; l++)
                rows[l] = gout + (m0 + (l < live ? l : 0)) * C + c0;
            for (long c = 0; c < cc; c += 16)
                transpose16(rows, c, first_cols(cc - c), gT + GW_LANES * c);
            long k = 0;
            for (; k + 1 < K; k += 2) {
                __m512 s0, s1;
                table_tile(gwtab, wrow, m0, live, K, k, xmax, T0);
                table_tile(gwtab, wrow, m0, live, K, k + 1, xmax, T1);
                lane_pairwise2(T0, T1, gT, xq + k * C + c0,
                               xq + (k + 1) * C + c0, cc, &s0, &s1);
                _mm512_store_ps(sums[0], s0);
                _mm512_store_ps(sums[1], s1);
                for (long l = 0; l < live; l++) {
                    gwp[(m0 + l) * K + k] = sums[0][l];
                    gwp[(m0 + l) * K + k + 1] = sums[1][l];
                }
            }
            if (k < K) {
                table_tile(gwtab, wrow, m0, live, K, k, xmax, T0);
                _mm512_store_ps(sums[0], lane_pairwise(T0, gT, xq + k * C + c0,
                                                       cc));
                for (long l = 0; l < live; l++)
                    gwp[(m0 + l) * K + k] = sums[0][l];
            }
        }
    }
}
#else
/* Never reached: the wrapper only passes planes on a VBMI host. */
#define backward_gw_vbmi(...) ((void) 0)
#define backward_gx_vbmi(...) ((void) 0)
#endif

/* ------------------------------------------------------------------
 * Fused difference-LUT backward over columns [c_lo, c_hi), which must
 * be chunk-aligned (c_lo % chunk == 0).  One cache-tiled loop per
 * chunk gathers BOTH gradient tables from the shared flat index
 * wrow[m, k] + xq[k, c] and reduces against gout:
 *
 *   gw_part[ci, m, k] = pairwise_f32 over the chunk's columns of
 *                       gwtab[idx] * gout[m, c]      (~ buf.sum(axis=2))
 *   gx[k, c]          = f32 sum over m (sequential) of
 *                       gxtab[idx] * gout[m, c]      (== buf.sum(axis=0))
 *
 * The gw_part sums match numpy's up to the zero sign of an all-(-0.0)
 * chunk (see pairwise_sum_f32), which the merge into +0.0 hides.  gw
 * chunk partials are indexed by GLOBAL chunk number ci so the caller
 * can merge them into the float64 gw in deterministic chunk order
 * regardless of how column blocks were split across threads.  gx is the
 * caller's float32 (K, C) output: each element adds its products from
 * 0.0f in ascending m straight into it, and a call writes only the
 * columns [c_lo, c_hi) of each row.  A NULL gx skips the gx sum (a
 * caller that needs no activation gradient); gw is the same either way.
 * tmp is per-thread scratch supplied by the caller: chunk floats (the
 * product row) for the scalar loop, the VBMI body's T and gT tiles for
 * it.
 *
 * ``fast`` is the same caller-proven in-bounds flag as the forward's,
 * proven against the SMALLER of the two tables (n_gw, n_gx): set, both
 * gathers index directly; clear, each index is clamped into its own
 * table like np.take(mode="clip").  The float32 operations and their
 * order are the same in both loops, so the results are bit-identical
 * either way.  restrict lets the compiler vectorize the elementwise
 * gather-multiply loop (no reassociation: each lane rounds exactly like
 * the scalar code), which it must not do while gxr may alias tmp.
 *
 * Two bodies: non-NULL planes (byte_planes of the gx table, with xt a
 * 64-byte-aligned index row and xmax = max(xq)) select the in-register
 * VBMI body above, which the wrapper only passes under the forward's
 * conditions (the proof with min(wrow) >= 0, the
 * self-check) but with its own crossover, C >= VBMI_BWD_MIN_C.
 * Otherwise the scalar loop below runs -- the only body off x86.
 */
void backward_grads_range(const float *restrict gwtab, long n_gw,
                          const float *restrict gxtab, long n_gx,
                          /* (M, K): wq * levels */
                          const int64_t *restrict wrow,
                          const uint8_t *restrict xq,     /* (K, C) */
                          const float *restrict gout,     /* (M, C) */
                          /* (n_chunks, M, K) */
                          float *restrict gw_part,
                          float *restrict gx,      /* (K, C) or NULL */
                          float *restrict tmp,
                          long M, long K, long C, long chunk,
                          long c_lo, long c_hi, long fast, long xmax,
                          const uint8_t *planes, uint8_t *xt)
{
    if (planes) {
        backward_gw_vbmi(gwtab, wrow, xq, gout, gw_part, tmp, M, K, C,
                         chunk, xmax, c_lo, c_hi);
        if (gx)
            backward_gx_vbmi(planes, n_gx, wrow, xq, gout, gx, xt,
                             M, K, C, chunk, c_lo, c_hi);
        return;
    }
    for (long c0 = c_lo; c0 < c_hi; c0 += chunk) {
        long hi = c0 + chunk < c_hi ? c0 + chunk : c_hi;
        long cc = hi - c0;
        float *gwp = gw_part + (c0 / chunk) * M * K;
        if (gx)
            for (long k = 0; k < K; k++)
                for (long c = 0; c < cc; c++)
                    gx[k * C + c0 + c] = 0.0f;
        for (long m = 0; m < M; m++) {
            const int64_t *wr = wrow + m * K;
            const float *grow = gout + m * C + c0;
            for (long k = 0; k < K; k++) {
                const int64_t base = wr[k];
                const uint8_t *xrow = xq + k * C + c0;
                if (!gx) {
                    for (long c = 0; c < cc; c++) {
                        const int64_t id = base + xrow[c];
                        tmp[c] = gwtab[fast ? id : clamp_idx(id, n_gw)]
                                 * grow[c];
                    }
                } else if (fast) {
                    float *gxr = gx + k * C + c0;
                    for (long c = 0; c < cc; c++) {
                        const int64_t id = base + xrow[c];
                        const float gv = grow[c];
                        tmp[c] = gwtab[id] * gv;
                        gxr[c] += gxtab[id] * gv;
                    }
                } else {
                    float *gxr = gx + k * C + c0;
                    for (long c = 0; c < cc; c++) {
                        const int64_t id = base + xrow[c];
                        const float gv = grow[c];
                        tmp[c] = gwtab[clamp_idx(id, n_gw)] * gv;
                        gxr[c] += gxtab[clamp_idx(id, n_gx)] * gv;
                    }
                }
                gwp[m * K + k] = pairwise_sum_f32(tmp, cc);
            }
        }
    }
}
"""

_lock = threading.Lock()
_check_lock = threading.Lock()
_lib: "ctypes.CDLL | None" = None
_compile_attempted = False
#: Whether the host CPU runs the VBMI gather body (read at kernel load).
_vbmi_host = False
#: Private switch: True forces the scalar gather body everywhere (tests
#: run both bodies on a VBMI host through it).
_force_scalar = False

#: Self-check verdict of the VBMI body: None = not run yet, True =
#: trusted, False = failed, scalar body pinned for the process.
_vbmi_verdict: bool | None = None
#: Thread running the self-check; its own probe calls may use the body.
_vbmi_prober: int | None = None

#: Largest K the VBMI body accepts: K * 0xFFFF stays below 2**31, so
#: its int32 register sums cannot overflow for any uint16 LUT.
VBMI_MAX_K = 32767
#: Narrowest C the VBMI body takes.  A tile costs the same for 1 or 128
#: columns, the scalar loop grows with C: measured on one AVX-512 VBMI
#: Xeon core at M x K from 16 x 144 to 512 x 4608, both entry points,
#: the scalar loop is 1.5-5.6x faster at C <= 4 and up to 1.2x at
#: C = 16, the VBMI body 1.06-1.8x faster at C = 32.
VBMI_MIN_C = 32
#: The backward's own crossover: per 16-row block and k the gw sum
#: transposes a 256 x 16 table tile, and each (m, k) loads a 16-zmm gx
#: table row, whatever the width, so narrow chunks amortize less.
#: Measured twice on one AVX-512 VBMI Xeon core at M x K = 16 x 144,
#: 64 x 576, 128 x 1152 and 512 x 4608 (the VBMI body's speed-up over the
#: scalar loop): 0.42-0.66x at C = 16, 0.62-0.80x at C = 32, 0.79-0.90x
#: at C = 48, 0.86-1.07x at C = 64, 0.94-1.01x at C = 80, 0.94-1.14x at
#: C = 96, 1.15-1.35x at C = 112 and 1.06-1.50x at C = 128.
VBMI_BWD_MIN_C = 96
#: Padding after each byte plane: a 256-byte row load at the last
#: table entry stays inside the array.
_PLANE_PAD = 256
#: Column tile of the VBMI body (``VBMI_TILE`` in the C source).
_VBMI_TILE = 128


def _cache_dir() -> str:
    try:
        user = getpass.getuser()
    except Exception:
        user = "unknown"
    path = os.path.join(tempfile.gettempdir(), f"repro-lutkernel-{user}")
    os.makedirs(path, exist_ok=True)
    return path


def _compile() -> "ctypes.CDLL | None":
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    digest = hashlib.sha256(_KERNEL_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"lutkernel-{digest}.so")
    if not os.path.exists(so_path):
        src_path = os.path.join(cache, f"lutkernel-{digest}.c")
        with open(src_path, "w") as fh:
            fh.write(_KERNEL_SOURCE)
        tmp_so = so_path + f".{os.getpid()}.tmp"
        # -ffp-contract=off: the backward's float32 and the float tail's
        # float64 mul-then-add sequences must round exactly like numpy's
        # separate ufunc passes; a fused FMA would skip the intermediate
        # rounding and break bit-identity.
        cmd = [compiler, "-O3", "-march=native", "-ffp-contract=off",
               "-shared", "-fPIC", src_path, "-o", tmp_so]
        try:
            subprocess.run(
                cmd, check=True, capture_output=True, timeout=120
            )
            os.replace(tmp_so, so_path)
        except (OSError, subprocess.SubprocessError):
            warnings.warn(
                "repro.core.lutkernel: C kernel build failed; using the "
                "numpy fallback for this process (results are identical, "
                "only slower)",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
    try:
        lib = ctypes.CDLL(so_path)
    except OSError:
        warnings.warn(
            "repro.core.lutkernel: compiled kernel failed to load; using "
            "the numpy fallback for this process",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    _i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    _u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    _f32 = np.ctypeslib.ndpointer(np.float32, flags="C_CONTIGUOUS")
    _f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    _long = ctypes.c_long
    # Packed-argument entries: one pointer crosses the FFI boundary, so
    # per-call marshalling stays ~1us instead of ~20us for 21 args.
    for sym in ("gather_call", "tail_f64_call", "im2col_serve_call"):
        packed = getattr(lib, sym)
        packed.restype = None
        packed.argtypes = [ctypes.c_void_p]
    _ptr = ctypes.c_void_p
    lib.gather_vbmi_supported.restype = ctypes.c_int
    lib.gather_vbmi_supported.argtypes = []
    bwd = lib.backward_grads_range
    bwd.restype = None
    bwd.argtypes = [
        _f32, _long, _f32, _long, _i64, _u8, _f32, _f32, _ptr, _f32,
        *[_long] * 8, _ptr, _ptr,
    ]
    for gx_arg, fold in ((_f32, lib.fold_input_grad_range_f32),
                         (_f64, lib.fold_input_grad_range_f64)):
        fold.restype = None
        fold.argtypes = [
            gx_arg, _f64, _u8, _f64, ctypes.c_double, *[_long] * 12,
        ]
    return lib


def _get_kernel() -> "ctypes.CDLL | None":
    """The loaded kernel library, or ``None``.

    ``REPRO_NO_CCKERNEL`` is read on *every* call, so setting or
    clearing it mid-process takes effect immediately (it used to be
    latched by the first call).  A failed compile, by contrast, is
    latched: one build attempt and one warning per process, because
    sweep fork workers construct engines repeatedly and must not
    re-invoke the compiler each time.
    """
    if os.environ.get(NO_CCKERNEL_ENV):
        return None
    global _lib, _compile_attempted, _vbmi_host
    if _compile_attempted:
        return _lib
    with _lock:
        if not _compile_attempted:
            _lib = _compile()
            _vbmi_host = bool(_lib is not None and _lib.gather_vbmi_supported())
            _compile_attempted = True
    return _lib


def reset_kernel_cache() -> None:
    """Forget the loaded/failed kernel state (tests, ``--no-cckernel``).

    The next :func:`_get_kernel` call re-evaluates ``REPRO_NO_CCKERNEL``
    and, if allowed, re-attempts the build (the compiled ``.so`` disk
    cache makes that cheap), and :func:`vbmi_trusted` re-runs its
    self-check.  Only the kernel and the VBMI verdict are cleared: the
    execution core's backward and serving self-check verdicts stay, so
    use :func:`repro.core.execcore.reset_backend_state`, which clears
    those and calls this, unless you want only this half.
    """
    global _lib, _compile_attempted, _vbmi_host, _vbmi_verdict
    with _lock:
        _lib = None
        _compile_attempted = False
        _vbmi_host = False
        _vbmi_verdict = None


def kernel_available() -> bool:
    """Whether the fused C kernels compiled and loaded (env honored)."""
    return _get_kernel() is not None


def compile_attempted() -> bool:
    """Whether this process already spent its one JIT build attempt."""
    return _compile_attempted


def vbmi_available() -> bool:
    """Whether this host can run the AVX-512 VBMI gather body at all.

    True when the kernel is loaded on a host with AVX-512 VBMI and BW
    (``__builtin_cpu_supports``, read once at kernel load) and the
    private ``_force_scalar`` switch is off.  The body still has to
    pass its self-check (:func:`vbmi_trusted`), and each call needs
    operands that qualify (:func:`_gather_body`).
    """
    return _get_kernel() is not None and _vbmi_host and not _force_scalar


def vbmi_trusted() -> bool:
    """Whether the C gathers may run their AVX-512 VBMI bodies.

    False when :func:`vbmi_available` is; otherwise the verdict of a
    one-time self-check of the bodies against numpy
    (:func:`_run_vbmi_self_check`), cached for the process.  One verdict
    covers every VBMI body: a failed check warns once and pins both
    forward gathers and the backward to their scalar C loops (not to
    numpy).  Every gather consults it, so a direct caller of
    :func:`fused_product_sums`, :func:`serve_tail` or
    :func:`fused_backward_grads` never gets an unvetted body; callers
    that trace should call it first, outside their spans, so the probe
    calls land in no traced operation.
    """
    global _vbmi_verdict, _vbmi_prober
    if not vbmi_available():
        return False
    verdict = _vbmi_verdict
    if verdict is not None:
        return verdict
    if _vbmi_prober == threading.get_ident():
        return True  # the self-check's own probe calls
    with _check_lock:
        if _vbmi_verdict is None:
            _vbmi_prober = threading.get_ident()
            try:
                _vbmi_verdict = _run_vbmi_self_check()
            finally:
                _vbmi_prober = None
    return _vbmi_verdict


#: Rows and columns of a levels-256 table where the VBMI bodies switch
#: 64-lane quarter or 128-byte half; the self-check puts byte edges there.
_PROBE_EDGES = np.array([0, 63, 64, 127, 128, 255])


def _run_vbmi_self_check() -> bool:
    """Compare the VBMI bodies with numpy on byte-edge probes.

    Forward: the body splits each uint16 entry into two byte planes,
    selects a table half on index bit 7 and un-permutes its lanes at
    store, so the probe places the byte edges 0x00FF, 0x0100, 0xFF00 and
    0xFFFF at table rows and columns 0/63/64/127/128/255 of a levels-256
    LUT, and cuts columns at 63/64/65/129 (partial and full 64-lane
    sub-tiles, one and two 128-column tiles).  Both entry points, int32
    and int64 accumulators, one thread, and two threads at C = 63 (row
    blocks: fewer tiles than threads) and C = 129 (one column tile
    each).  Backward: :func:`_backward_probes_match`.  About 20 ms of
    CPU in all.
    """
    from repro.core import execcore

    rng = np.random.default_rng(0xB17E)
    levels = 256
    lut = rng.integers(0, 0x10000, size=levels * levels).astype(np.int32)
    probe = _PROBE_EDGES
    edges = np.array([0x00FF, 0x0100, 0xFF00, 0xFFFF], dtype=np.int32)
    spread = np.arange(6)[:, None] + np.arange(6)[None, :]
    lut.reshape(levels, levels)[np.ix_(probe, probe)] = edges[spread % 4]
    planes = byte_planes(lut)
    wrow = (probe[spread % 6] * levels).astype(np.int64)  # (6, 6)
    xq = rng.integers(0, levels, size=(6, 129)).astype(np.uint8)
    cols = np.arange(0, 129, 2)
    xq[:, cols] = probe[(np.arange(6)[:, None] + cols[None, :]) % 6]
    # The requant tail at zw = m0 = 1, d0 = 0, shift = 11.
    one = np.ones(1, dtype=np.int64)
    tail = RequantTail(one, one, one * 0, one * 11, 0, 255, wrow.shape[0])
    for c in (63, 64, 65, 129):
        sub = np.ascontiguousarray(xq[:, :c])
        want = execcore._numpy_forward(lut, wrow, sub, c, np.int64)
        colsum = sub.sum(axis=0, dtype=np.int64)
        want_q = np.clip((want - colsum + 1024) >> 11, 0, 255)
        for acc_dtype in (np.int64, np.int32):
            for threads in (1, 2) if c in (63, 129) else (1,):
                got = fused_product_sums(
                    lut, wrow, sub, acc_dtype, threads, planes
                )
                got_q = serve_tail(
                    lut, wrow, sub, colsum, tail, acc_dtype, threads,
                    planes=planes,
                )
                if got is None or got_q is None:
                    return False
                if not (
                    np.array_equal(got, want) and np.array_equal(got_q, want_q)
                ):
                    return _vbmi_mismatch()
    return _backward_probes_match(rng, wrow, xq) or _vbmi_mismatch()


def _backward_probes_match(rng, wrow, xq) -> bool:
    """The backward body against numpy, bit for bit, on byte-edge tables.

    Two float32 tables hold the bit patterns -0.0, the smallest
    denormal, 0x00FF00FF, 0x7F7FFFFF and +-inf (every byte plane at 0x00,
    0x01, 0x7F, 0x80 and 0xFF) at the forward probe's edge rows and
    columns; ``gout`` carries denormals.  Chunks 64 and 96 over 96 and
    129 columns (at least ``VBMI_BWD_MIN_C``) cut partial 64-lane blocks
    and, at 129 / 64, leave a one-column chunk that the second of two
    threads owns.  One 129-column chunk makes the pairwise sum split.
    5 and 17 rows leave dead lanes in the gw sum's 16-row blocks.  Five
    ks leave the gw sum's last k unpaired.  Results are compared with
    numpy by bit pattern (:func:`_same_bits`), so the inf and NaN sums
    count too.  The first probe writes ``gx`` in place into rows followed
    by a canary row of -0.0: two threads over 96-column chunks of 129
    columns each end a chunk in a partial 64-lane block, next to the
    other thread's columns and, at a row's end, the next row's.  A tail
    store past the chunk adds ``table * 0.0`` there, which turns a
    canary into +0.0 or NaN, so the probe fails before any store past an
    array's end can corrupt the heap.  The last probe puts a positive gw
    table against a ``gout`` row of -0.0, whose chunk sums are -0.0 over
    8 or more columns and +0.0 over fewer; the merge into +0.0 hides
    those signs, so its per-chunk sums are compared with the scalar
    loop's (:func:`_backward_parts`), and a leaf that starts from +0.0
    fails.  About 10 ms of CPU.
    """
    from repro.core import execcore

    levels = 256
    edges = np.array(
        [0x80000000, 0x00000001, 0x00FF00FF, 0x7F7FFFFF, 0x7F800000,
         0xFF800000],
        dtype=np.uint32,
    ).view(np.float32)
    spread = np.arange(6)[:, None] + 2 * np.arange(6)[None, :]
    tables = []
    for shift in (0, 1):
        tab = rng.random(levels * levels, dtype=np.float32) - 0.5
        tab.reshape(levels, levels)[np.ix_(_PROBE_EDGES, _PROBE_EDGES)] = (
            edges[(spread + shift) % 6]
        )
        tables.append(tab)
    positive = rng.random(levels * levels, dtype=np.float32) + 0.5
    planes = byte_planes(tables[1])
    rows = np.arange(17)[:, None] + np.arange(wrow.shape[1])[None, :]
    rows = (_PROBE_EDGES[rows % 6] * levels).astype(np.int64)  # (17, 6)
    gout = rng.standard_normal((17, xq.shape[1])).astype(np.float32)
    gout[:, ::9] *= np.float32(1e-39)
    gout[3] = -0.0
    lib = _get_kernel()
    canary = np.full((rows.shape[1] + 1, 129), -0.0, dtype=np.float32)
    args = (tables[0], tables[1], rows, xq, gout, 96, 2)
    with np.errstate(invalid="ignore", over="ignore"):
        want = execcore._numpy_backward(*args[:-1])[1]
        _backward_parts(lib, *args, planes, None, True, out=canary[:-1])
    if not _same_bits((canary[:-1],), (want,)) or not np.all(
        canary[-1].view(np.uint32) == 0x80000000
    ):
        return False
    for gw_flat, w, c, chunk, threads in (
        (tables[0], wrow, 96, 96, 1),
        (tables[0], wrow, 129, 64, 2),
        (tables[0], wrow, 129, 96, 1),
        (tables[0], rows[:5], 129, 160, 1),
        (tables[0], wrow[:, :5], 129, 129, 1),
        (positive, rows, 129, 64, 2),
    ):
        sub_x = np.ascontiguousarray(xq[: w.shape[1], :c])
        sub_g = np.ascontiguousarray(gout[: w.shape[0], :c])
        args = (gw_flat, tables[1], w, sub_x, sub_g, chunk, threads)
        with np.errstate(invalid="ignore", over="ignore"):
            want = execcore._numpy_backward(*args[:-1])
            got = fused_backward_grads(*args, planes)
        if got is None or not _same_bits(got, want):
            return False
    # The last probe's chunk sums, with the -0.0 row's zero signs.
    vbmi, scalar = (
        _backward_parts(lib, *args, pl, None, False)[0]
        for pl in (planes, None)
    )
    return _same_bits((vbmi,), (scalar,))


def _same_bits(got, want) -> bool:
    """Whether two tuples of float arrays match in dtype, shape and bits."""
    return all(
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))
        for a, b in zip(got, want)
    )


def _vbmi_mismatch() -> bool:
    """Warn that the VBMI bodies failed their self-check; returns False."""
    warnings.warn(
        "repro.core.lutkernel: the AVX-512 VBMI gather bodies are not "
        "bit-identical to numpy on this platform; the C forward gathers "
        "and the C backward use their scalar loops.",
        RuntimeWarning,
        stacklevel=4,
    )
    return False


def byte_planes(table: np.ndarray) -> np.ndarray | None:
    """The VBMI bodies' table operand: a table's byte planes.

    One 64-byte-aligned uint8 array ``[b0 | pad | b1 | pad | ...]``, one
    plane per byte of the entries' itemsize, lowest byte first, each
    followed by 256 bytes of padding so a 256-entry row load at the last
    entry stays inside the array.  An integer table (a product LUT, for
    the forward) is stored as uint16: two planes, and ``None`` when an
    entry is outside ``[0, 0xFFFF]``.  Any other 2- or 4-byte table (a
    float32 gradient table, for the backward) splits its bit patterns:
    four planes.  ``None`` for an empty table or another itemsize.  128
    KB for an 8-bit multiplier's LUT, 256 KB per gradient table.
    Derived data: engines build it once and never publish it.
    """
    tab = np.ascontiguousarray(table).ravel()
    if tab.size == 0:
        return None
    if tab.dtype.kind in "iu":
        if int(tab.min()) < 0 or int(tab.max()) > 0xFFFF:
            return None
        tab = tab.astype(np.uint16)
    n_planes = tab.dtype.itemsize
    if n_planes not in (2, 4):
        return None
    bits = tab.view(f"u{n_planes}")
    plane = tab.size + _PLANE_PAD
    planes = _aligned_empty(n_planes * plane)
    planes[:] = 0
    for p in range(n_planes):
        planes[p * plane : p * plane + tab.size] = (bits >> (8 * p)) & 0xFF
    planes.flags.writeable = False
    return planes


def _aligned_empty(n: int) -> np.ndarray:
    """An uninitialised uint8 array of ``n`` bytes on a 64-byte boundary."""
    buf = np.empty(n + 64, dtype=np.uint8)
    off = -buf.ctypes.data % 64
    return buf[off : off + n]


def threads_requested() -> int:
    """Thread count from ``REPRO_LUTKERNEL_THREADS`` (default/invalid: 1)."""
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(n, 1)


def _run_threaded(work, ranges) -> None:
    """Run ``work(*bounds, slot)`` over ``ranges``; threaded when > 1 range.

    ctypes drops the GIL while the kernel executes, so plain threads get
    real parallelism; every range writes disjoint output, so the result
    is independent of the interleaving.
    """
    if not ranges:
        return
    if len(ranges) == 1:
        work(*ranges[0], 0)
        return
    threads = [
        threading.Thread(target=work, args=(*bounds, slot), daemon=True)
        for slot, bounds in enumerate(ranges)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _row_ranges(m: int, nthreads: int) -> list[tuple[int, int]]:
    if m <= 0:
        # Degenerate shapes produce no ranges at all: ``range(0, 0, 0)``
        # from the ceil-divide below used to raise ValueError.
        return []
    nthreads = max(1, min(nthreads, m))
    per = -(-m // nthreads)
    return [(lo, min(lo + per, m)) for lo in range(0, m, per)]


def _extrema(
    wrow: np.ndarray,
    xq: np.ndarray,
    wrow_bounds: tuple[int, int] | None = None,
    xq_bounds: tuple[int, int] | None = None,
) -> tuple[int, int, int, int] | None:
    """``(min(wrow), max(wrow), min(xq), max(xq))``; ``None`` if either is empty.

    ``wrow_bounds`` / ``xq_bounds`` are optional precomputed (or
    conservative) ``(min, max)`` pairs that skip the reductions.
    """
    if wrow.size == 0 or xq.size == 0:
        return None
    wmin, wmax = wrow_bounds if wrow_bounds is not None else (
        int(wrow.min()), int(wrow.max())
    )
    xmin, xmax = xq_bounds if xq_bounds is not None else (
        int(xq.min()), int(xq.max())
    )
    return wmin, wmax, xmin, xmax


def _in_bounds(ext: tuple[int, int, int, int] | None, n: int) -> bool:
    fast = ext is None or (ext[0] + ext[2] >= 0 and ext[1] + ext[3] < n)
    _TRACE.count(
        "lutkernel.gather.unclamped" if fast else "lutkernel.gather.clamped"
    )
    return fast


def _gather_in_bounds(
    wrow: np.ndarray,
    xq: np.ndarray,
    n: int,
    wrow_bounds: tuple[int, int] | None = None,
    xq_bounds: tuple[int, int] | None = None,
) -> bool:
    """Whether every flat index ``wrow[m, k] + xq[k, c]`` lies in ``[0, n)``.

    The in-bounds proof behind the C gathers' no-clamp loop: from the
    array-wide extrema, ``min(wrow) + min(xq) >= 0`` and
    ``max(wrow) + max(xq) < n`` bound every index (four SIMD reductions
    over the operands, ~1% of the ``M*K*C`` gather they unclamp).  It
    holds for every real operand (``wq``, ``xq`` in ``[0, levels)``);
    diverged ones fail it and the kernel runs the exact clamp loop, so
    the result is the same either way.  ``wrow_bounds`` / ``xq_bounds``
    are optional precomputed (or conservative) ``(min, max)`` pairs that
    skip the reductions.  The branch taken is counted as
    ``lutkernel.gather.unclamped`` / ``lutkernel.gather.clamped``.
    """
    return _in_bounds(_extrema(wrow, xq, wrow_bounds, xq_bounds), n)


def _activation_operand(xq: np.ndarray, ext) -> np.ndarray | None:
    """``xq`` as the C gathers read it: C-contiguous uint8, or ``None``.

    A uint8 array passes through (no copy when it is C-contiguous).
    Another integer array whose extrema ``ext`` (:func:`_extrema`) lie
    in ``[0, 255]`` is narrowed once.  Anything else -- an activation off
    the uint8 grid, such as a NaN quantized to INT32_MIN -- gives
    ``None``, and the caller runs the numpy reference, whose
    ``np.take(mode="clip")`` of the flat index the C clamp loop matches
    on the weight side.
    """
    if xq.dtype != np.uint8 and (
        xq.dtype.kind not in "iu"
        or (ext is not None and (ext[2] < 0 or ext[3] > 0xFF))
    ):
        return None
    return np.ascontiguousarray(xq, dtype=np.uint8)


def _gather_body(
    lut_size: int,
    ext: tuple[int, int, int, int] | None,
    k: int,
    c: int,
    planes: np.ndarray | None,
    max_k: int | None = VBMI_MAX_K,
    min_c: int = VBMI_MIN_C,
) -> tuple[int, bool]:
    """Pick a gather body: ``(fast, vbmi)``.

    ``ext`` holds the operand extrema (:func:`_extrema`, ``None`` at
    ``K == 0``) of a ``(K, C)`` uint8 operand.  ``fast`` is the
    in-bounds proof's flag (:func:`_gather_in_bounds`; the backward
    passes the smaller gradient table's size); ``vbmi`` says whether the
    VBMI body runs (else the scalar loop).  It needs all of: byte ``planes`` (a uint16 LUT, or
    the backward's pair), the proof, ``min(wrow) >= 0`` -- so a row load
    ``table[wrow + 0..255]`` never starts before the table, which the
    proof alone allows (``wrow - 8`` with ``xq + 8``) -- ``K <= max_k``
    (the forward's int32 bound ``VBMI_MAX_K``; the backward's float sums
    have none), ``C >= min_c`` (the measured crossover: ``VBMI_MIN_C``,
    the backward's ``VBMI_BWD_MIN_C``) and :func:`vbmi_trusted`.  The
    proof's extrema are reused, so the choice costs no extra scan.
    Counted as ``lutkernel.gather.vbmi`` / ``lutkernel.gather.scalar``.
    """
    fast = _in_bounds(ext, lut_size)
    vbmi = (
        fast
        and planes is not None
        and ext is not None
        and ext[0] >= 0
        and (max_k is None or k <= max_k)
        and c >= min_c
        and vbmi_trusted()
    )
    _TRACE.count(
        "lutkernel.gather.vbmi" if vbmi else "lutkernel.gather.scalar"
    )
    return int(fast), vbmi


def _gather_blocks(m: int, c: int, k: int, vbmi: bool, nthreads: int):
    """Per-thread ``(m_lo, m_hi, c_lo, c_hi)`` blocks and VBMI tile scratch.

    The scalar loop splits rows.  The VBMI body splits 128-column tiles
    instead: a thread copies each tile it owns into its own
    ``K x 128``-byte scratch, so every activation is copied once per
    call.  With fewer tiles than threads (small C) it splits rows like
    the scalar loop, each row block copying every tile for itself:
    ``K x C`` bytes per block against its ``rows x K x C`` lookups.
    """
    if vbmi and -(-c // _VBMI_TILE) >= nthreads:
        blocks = [
            (0, m, lo, hi) for lo, hi in _chunk_ranges(c, _VBMI_TILE, nthreads)
        ]
    else:
        blocks = [(lo, hi, 0, c) for lo, hi in _row_ranges(m, nthreads)]
    if not vbmi:
        return blocks, [None] * len(blocks)
    return blocks, [_aligned_empty(k * _VBMI_TILE) for _ in blocks]


def _ptr(arr: np.ndarray | None) -> int:
    return 0 if arr is None else arr.ctypes.data


def _check_operands(
    who, tables, wrow, xq, planes, n_planes=2, gout=None, chunk=None
):
    """Reject operands the C loops would read out of bounds with.

    The kernels trust their shapes: a ``wrow`` whose K differs from
    ``xq``'s, or a short ``gout``, reads past a buffer (SIGSEGV or
    garbage), and an empty table has no entry to clamp an index into.
    ``planes`` holds, per table, ``None`` or its :func:`byte_planes`
    (``n_planes`` of them); only their size and layout are checked, not
    their bytes.  ``chunk`` (the backward's column step) must be >= 1.
    """
    sizes = [np.size(t) for t in tables]
    if min(sizes) == 0:
        raise ValueError(f"{who}: a gather table is empty")
    if chunk is not None and chunk < 1:
        raise ValueError(f"{who}: chunk must be >= 1, got {chunk}")
    if wrow.ndim != 2 or xq.ndim != 2:
        raise ValueError(
            f"{who}: wrow and xq must be 2-D, got {wrow.shape} and {xq.shape}"
        )
    if wrow.shape[1] != xq.shape[0]:
        raise ValueError(
            f"{who}: wrow {wrow.shape} and xq {xq.shape} disagree on K"
        )
    if gout is not None and gout.shape != (wrow.shape[0], xq.shape[1]):
        raise ValueError(
            f"{who}: gout has shape {gout.shape}, expected "
            f"{(wrow.shape[0], xq.shape[1])}"
        )
    for pl, size in zip(planes, sizes):
        if pl is not None and (
            pl.dtype != np.uint8
            or pl.shape != (n_planes * (size + _PLANE_PAD),)
            or not pl.flags.c_contiguous
        ):
            raise ValueError(
                f"{who}: planes are not byte_planes of the table"
            )


#: Int64 slots of the C ``tail_args`` and ``gather_args`` structs.
_TAIL_SLOTS = 15
_GATHER_SLOTS = 10 + _TAIL_SLOTS + 6

#: ``FloatTail.flags`` bits (``FT_*`` in the C source).
FT_BIAS, FT_BN, FT_RESID, FT_RELU = 1, 2, 4, 8


def _const_row(
    arr: np.ndarray, m: int, what: str, who: str
) -> tuple[np.ndarray, int]:
    """Normalize a per-row constant block to (contiguous int64 1-D, stride).

    Size-1 blocks (per-tensor) get stride 0, size-``m`` blocks
    (per-channel) stride 1, so the kernel indexes either layout in place
    -- read-only views included (already contiguous, so
    ``ascontiguousarray`` is a no-op and the read stays zero-copy).
    """
    out = np.ascontiguousarray(np.ravel(arr), dtype=np.int64)
    if out.size == 1:
        return out, 0
    if out.size != m:
        raise ValueError(
            f"{who}: {what} has {out.size} entries, expected 1 or {m}"
        )
    return out, 1


class RequantTail:
    """The requant tail's constants, validated and laid out once.

    ``zw`` and ``m0`` / ``d0`` / ``shift`` (the
    :class:`~repro.nn.requant.RequantParams` arrays) each hold 1 entry
    (per-tensor) or ``m`` (per-channel); ``[qlo, qhi]`` are the uint8
    rails.  The C slots, addresses included, are read here, so a plan op
    that builds its tail at compile time pays no per-call conversion.
    """

    __slots__ = ("m", "zw", "m0", "d0", "shift", "qlo", "qhi", "slots")

    def __init__(self, zw, m0, d0, shift, qlo, qhi, m: int):
        who = "RequantTail"
        if not (0 <= qlo <= qhi <= 0xFF):
            raise ValueError(f"{who}: uint8 rails out of range [{qlo}, {qhi}]")
        self.m = m
        self.zw, zw_stride = _const_row(zw, m, "zw", who)
        self.m0, rq_stride = _const_row(m0, m, "m0", who)
        self.d0, d0_stride = _const_row(d0, m, "d0", who)
        self.shift, sh_stride = _const_row(shift, m, "shift", who)
        if not (rq_stride == d0_stride == sh_stride):
            raise ValueError(f"{who}: m0/d0/shift layout mismatch")
        self.qlo, self.qhi = int(qlo), int(qhi)
        # tail_args from zw to fflags: no float constants.
        self.slots = (
            self.zw.ctypes.data, zw_stride, self.m0.ctypes.data,
            self.d0.ctypes.data, self.shift.ctypes.data, rq_stride,
            self.qlo, self.qhi, 0, 0,
        )


class FloatTail:
    """The float tail's constants, packed once into one float64 block.

    The tail of a LUT layer whose output leaves the integer grid: the
    exact dequant of ``A = acc - zw * colsum`` (``w_corr``,
    ``const_corr``, ``scale``, optional ``bias``), then optionally the
    eval BatchNorm ``bn = (mean, inv_std, gamma, beta)``, the residual
    add of a block's shortcut (``residual``: each call passes it) and
    the float ReLU.  ``consts`` is the (8, M) float64 block the C tail
    reads through one pointer -- rows ``w_corr, const_corr, scale, bias,
    mean, inv_std, gamma, beta``, size-1 (per-tensor) constants repeated
    per row, absent ones zero -- and ``flags`` its ``FT_*`` bits.  The
    numpy reference (:func:`repro.core.execcore._float_tail`) reads the
    same block.
    """

    __slots__ = ("m", "zw", "consts", "flags", "slots")

    def __init__(self, zw, w_corr, const_corr, scale, bias=None, bn=None,
                 residual: bool = False, relu: bool = False):
        w_corr = np.ravel(np.asarray(w_corr, dtype=np.float64))
        m = self.m = w_corr.size
        self.zw, zw_stride = _const_row(zw, m, "zw", "FloatTail")
        rows = (w_corr, const_corr, scale, 0.0 if bias is None else bias,
                *((0.0,) * 4 if bn is None else bn))
        consts = np.empty((8, m), dtype=np.float64)
        for i, row in enumerate(rows):
            row = np.ravel(np.asarray(row, dtype=np.float64))
            if row.size not in (1, m):
                raise ValueError(
                    f"FloatTail: constant row {i} has {row.size} entries, "
                    f"expected 1 or {m}"
                )
            consts[i] = row
        consts.flags.writeable = False
        self.consts = consts
        self.flags = (
            FT_BIAS * (bias is not None) + FT_BN * (bn is not None)
            + FT_RESID * bool(residual) + FT_RELU * bool(relu)
        )
        self.slots = (
            self.zw.ctypes.data, zw_stride, 0, 0, 0, 0, 0, 0,
            consts.ctypes.data, self.flags,
        )


def _tail_operands(tail, colsum, resid, m: int, c: int, who):
    """The tail's output array and checked per-call operands.

    Returns ``(out, colsum, resid)``: the (M, C) output, uint8 for a
    :class:`RequantTail` and float64 for a :class:`FloatTail`, and
    ``colsum`` / ``resid`` as C contiguous int64 / float64 arrays (kept
    referenced by the caller for the duration of the call).
    """
    if tail.m != m:
        raise ValueError(f"{who}: tail built for {tail.m} rows, got {m}")
    colsum = np.ascontiguousarray(colsum, dtype=np.int64)
    if colsum.shape != (c,):
        raise ValueError(
            f"{who}: colsum has shape {colsum.shape}, expected ({c},)"
        )
    if isinstance(tail, RequantTail):
        if resid is not None:
            raise ValueError(f"{who}: the requant tail takes no residual")
        return np.empty((m, c), dtype=np.uint8), colsum, None
    if (resid is not None) != bool(tail.flags & FT_RESID):
        raise ValueError(f"{who}: residual operand and tail disagree")
    if resid is not None:
        resid = np.ascontiguousarray(resid, dtype=np.float64)
        if resid.shape != (m, c):
            raise ValueError(
                f"{who}: residual has shape {resid.shape}, expected "
                f"{(m, c)}"
            )
    return np.empty((m, c), dtype=np.float64), colsum, resid


def _tail_slots(tail, out, colsum, resid, c: int) -> tuple:
    """The ``tail_args`` slots of one call (C struct order)."""
    return (
        out.ctypes.data, colsum.ctypes.data, *tail.slots,
        0 if resid is None else resid.ctypes.data, tail.m, c,
    )


def _gather(
    who, lut_flat, wrow, xq, acc_dtype, threads, planes, wrow_bounds=None,
    xq_bounds=None, tail=None, colsum=None, resid=None,
):
    """The one forward gather behind :func:`fused_product_sums`,
    and :func:`serve_tail`.

    ``tail`` is ``None`` for the sums (the (M, C) result in
    ``acc_dtype``), a :class:`RequantTail` (the (M, C) uint8 result) or a
    :class:`FloatTail` (the (M, C) float64 result, ``resid`` its
    residual operand); both tails take ``colsum``.  Checks the operands,
    the accumulator dtype among them, before any C call; picks the body
    (:func:`_gather_body`) and the per-thread blocks
    (:func:`_gather_blocks`); and runs one packed ``gather_call`` per
    block, slots in the order of the C ``gather_args`` struct, each
    operand's address read once.  ``None`` when the kernel is unavailable
    or an activation is off the uint8 grid (:func:`_activation_operand`).
    """
    _check_operands(who, (lut_flat,), wrow, xq, (planes,))
    acc_dtype = np.dtype(acc_dtype)
    if acc_dtype not in (np.int32, np.int64):
        # The C bodies size their accumulator rows by this width.
        raise ValueError(
            f"{who}: acc_dtype must be int32 or int64, got {acc_dtype}"
        )
    lib = _get_kernel()
    if lib is None:
        return None
    m, (k, c) = wrow.shape[0], xq.shape
    if tail is None:
        out = np.empty((m, c), dtype=acc_dtype)
    else:
        out, colsum, resid = _tail_operands(tail, colsum, resid, m, c, who)
    if m == 0 or c == 0:
        # Empty micro-batch: never a kernel call (the row/chunk
        # partitioners have no ranges to offer).
        return out
    lut_flat = np.ascontiguousarray(lut_flat, dtype=np.int32)
    wrow = np.ascontiguousarray(wrow, dtype=np.int64)
    ext = _extrema(wrow, xq, wrow_bounds, xq_bounds)
    xq = _activation_operand(xq, ext)
    if xq is None:
        return None
    fast, vbmi = _gather_body(lut_flat.size, ext, k, c, planes)
    nthreads = threads_requested() if threads is None else max(int(threads), 1)
    ranges, tiles = _gather_blocks(m, c, k, vbmi, nthreads)
    if tail is None:
        acc_addrs = [out.ctypes.data] * len(ranges)
        tail_slots = (0,) * _TAIL_SLOTS
    else:
        # One scratch row per thread for the scalar body, the row that
        # never leaves cache (the VBMI body sums its tiles in registers).
        accs = [np.empty(0 if vbmi else c, dtype=acc_dtype) for _ in ranges]
        acc_addrs = [acc.ctypes.data for acc in accs]
        tail_slots = _tail_slots(tail, out, colsum, resid, c)
    head = (
        lut_flat.ctypes.data, lut_flat.size, wrow.ctypes.data,
        xq.ctypes.data, k, c, fast, acc_dtype == np.int32,
    )
    planes_addr = planes.ctypes.data if vbmi else 0
    # One row of slots per block, in the C ``gather_args`` order.
    args = np.array(
        [
            (*head, addr, 0 if tail else c, *tail_slots, planes_addr,
             0 if tile is None else tile.ctypes.data, *block)
            for addr, tile, block in zip(acc_addrs, tiles, ranges)
        ],
        dtype=np.int64,
    )
    base, row_bytes = args.ctypes.data, args.strides[0]
    call = lib.gather_call

    def work(_m_lo, _m_hi, _c_lo, _c_hi, slot):
        call(base + slot * row_bytes)

    counter, span = (
        ("lutkernel.serve_tail_calls", "lutkernel.serve_tail") if tail
        else ("lutkernel.fused_calls", "lutkernel.product_sums")
    )
    _TRACE.count(counter)
    with _TRACE.span(span, cat="engine"):
        _run_threaded(work, ranges)
    return out


def fused_product_sums(
    lut_flat: np.ndarray,
    wrow: np.ndarray,
    xq: np.ndarray,
    acc_dtype=np.int64,
    threads: int | None = None,
    planes: np.ndarray | None = None,
    xq_bounds: tuple[int, int] | None = None,
) -> np.ndarray | None:
    """``out[m, c] = sum_k lut_flat[wrow[m, k] + xq[k, c]]``.

    When the operand extrema prove every index in range
    (:func:`_gather_in_bounds`) the C loop indexes the table directly;
    otherwise it clamps each index exactly like the numpy path's
    ``np.take(..., mode="clip")``, so diverged operands (NaN weights
    quantizing to INT32_MIN) degrade identically on both backends
    instead of faulting.  Given byte ``planes``, a qualifying call runs
    the in-register AVX-512 VBMI body instead of the scalar loop (see
    :func:`_gather_body`).  Integer sums: bit-identical every way.

    Args:
        lut_flat: Flat int32 product LUT of size ``levels**2``.
        wrow: (M, K) int64 precomputed row offsets (``wq * levels``).
        xq: (K, C) quantized activations, values in ``[0, levels)``:
            uint8 (read in place), or another integer dtype narrowed
            once when its values lie in ``[0, 255]``.
        acc_dtype: ``np.int64`` (default) or ``np.int32``.  The int32
            variant halves accumulator write traffic; the caller must
            guarantee ``K * max|lut| < 2**31`` (see
            ``LutGemm.int32_acc_safe``) -- within that bound the two are
            bit-identical.
        threads: Row-block thread count; ``None`` reads
            ``REPRO_LUTKERNEL_THREADS``.  Integer accumulation over
            disjoint rows: bit-identical for every value.
        planes: :func:`byte_planes` of ``lut_flat``, or ``None`` (the
            scalar loop only).  Used as given: only their size is
            checked, so planes of another LUT give that LUT's sums.
        xq_bounds: Optional ``(min, max)`` of ``xq`` (exact or
            conservative) the caller already knows, e.g. from the
            quantized image its im2col unfolded; skips two reductions.

    Returns:
        The (M, C) accumulator in ``acc_dtype``, or ``None`` when the
        kernel is unavailable or an activation lies outside ``[0, 255]``
        (callers must fall back to the numpy path, which gives the same
        bits).

    Raises:
        ValueError: ``wrow`` / ``xq`` are not 2-D or disagree on K,
            ``lut_flat`` is empty, ``acc_dtype`` is not int32 or int64,
            or ``planes`` do not fit it.
    """
    return _gather(
        "fused_product_sums", lut_flat, wrow, xq, acc_dtype, threads, planes,
        xq_bounds=xq_bounds,
    )


def serve_tail(
    lut_flat: np.ndarray,
    wrow: np.ndarray,
    xq: np.ndarray,
    colsum: np.ndarray,
    tail: "RequantTail | FloatTail",
    acc_dtype=np.int64,
    threads: int | None = None,
    wrow_bounds: tuple[int, int] | None = None,
    xq_bounds: tuple[int, int] | None = None,
    planes: np.ndarray | None = None,
    resid: np.ndarray | None = None,
) -> np.ndarray | None:
    """The fused serving op: the gather, then one of the two tails.

    One C loop per output row (or VBMI tile) gathers and corrects in
    integers, ``A[c] = sum_k lut_flat[wrow[m, k] + xq[k, c]] - zw[m] *
    colsum[c]``, then hands the finished row to the tail while it is hot:

    * a :class:`RequantTail` gives the (M, C) uint8 output
      ``clip((A[c] * m0[m] + d0[m] + half) >> shift[m], qlo, qhi)``
      (``half = 2**(shift-1)``, 0 at 0), the
      :func:`repro.nn.requant.rounding_right_shift` round-half-up
      convention exactly; ``qlo`` folds the integer ReLU, since
      ``max(q, Z)`` over a ``[qmin, qmax]`` clip equals one ``[max(qmin,
      Z), qmax]`` clip;
    * a :class:`FloatTail` gives the (M, C) float64 output of a layer
      that leaves the integer grid: the exact dequant of ``A``, then the
      optional BatchNorm, residual add (``resid``, float64 (M, C)) and
      ReLU, each float operation in the unfused numpy plan's order (see
      the C comment above ``tail_args``).

    Both are pinned by the execcore serve self-check.  Gather indices
    clamp into the table like ``np.take(mode="clip")`` only when the
    extrema proof (:func:`_gather_in_bounds`) fails.

    Args:
        lut_flat: Flat int32 product LUT of size ``levels**2``.
        wrow: (M, K) int64 precomputed row offsets (``wq * levels``).
        xq: (K, C) quantized activations, as for
            :func:`fused_product_sums`.
        colsum: (C,) int64 column sums of ``xq`` (shared across row
            blocks, so the caller computes it once).
        tail: The tail's constants, built once (plan ops build them at
            compile time).
        acc_dtype: ``np.int64`` (default) or ``np.int32`` accumulator
            rows (``np.int32`` requires ``K * max|lut| < 2**31``, see
            ``LutGemm.int32_acc_safe``; bit-identical within the bound).
        threads: Row-block thread count; ``None`` reads
            ``REPRO_LUTKERNEL_THREADS``.  Rows are disjoint:
            bit-identical for every value.
        wrow_bounds: Optional precomputed ``(wrow.min(), wrow.max())``.
            ``wrow`` is input-independent, so plan ops compute this once
            at compile time; it feeds the in-bounds proof that lets the
            C gather skip per-element index clamping (out-of-range data
            takes the exact clamp loop -- bit-identical either way).
        xq_bounds: Optional conservative ``(min, max)`` bound on the
            ``xq`` values, for callers that know the value range by
            construction (plan ops feed uint8 data, so ``(0, 255)``);
            skips the per-call min/max reductions.
        planes: :func:`byte_planes` of ``lut_flat``, or ``None``.  With
            planes, a qualifying call runs the VBMI gather body (see
            :func:`_gather_body`; ``C == 1`` rows keep the scalar
            four-chain reduction).  Used as given, like
            :func:`fused_product_sums`'s.
        resid: The float tail's residual operand, when it has one.

    Returns:
        The (M, C) result, or ``None`` when the kernel is unavailable or
        an activation lies outside ``[0, 255]`` (callers fall back to
        the unfused numpy pipeline).

    Raises:
        ValueError: ``wrow`` / ``xq`` are not 2-D or disagree on K,
            ``lut_flat`` is empty, ``acc_dtype`` is not int32 or int64,
            or ``colsum``, ``resid`` or ``planes`` do not fit.
    """
    return _gather(
        "serve_tail", lut_flat, wrow, xq, acc_dtype, threads, planes,
        wrow_bounds, xq_bounds, tail, colsum, resid,
    )


def tail_f64(
    acc: np.ndarray,
    colsum: np.ndarray,
    tail: "RequantTail | FloatTail",
    resid: np.ndarray | None = None,
) -> np.ndarray | None:
    """Either serving tail over an exact-integer float64 accumulator.

    ``acc`` (M, C) holds the rank-1 lowering's matmul sums, integers
    below ``2**53``, so the C tail's int64 conversion is exact and the
    (M, C) result is :func:`serve_tail`'s for the same sums: uint8 for a
    :class:`RequantTail`, float64 for a :class:`FloatTail`.  ``None``
    when the kernel is unavailable (callers run the numpy reference).
    """
    lib = _get_kernel()
    if lib is None:
        return None
    m, c = acc.shape
    out, colsum, resid = _tail_operands(tail, colsum, resid, m, c,
                                        "tail_f64")
    if m == 0 or c == 0:
        return out
    acc = np.ascontiguousarray(acc, dtype=np.float64)
    # Slot order matches the C ``tail_f64_args`` struct.
    args = np.array(
        [acc.ctypes.data, *_tail_slots(tail, out, colsum, resid, c)],
        dtype=np.int64,
    )
    lib.tail_f64_call(args.ctypes.data)
    return out


def im2col_serve(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    zx: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """C im2col of an approximate conv layer, with its column sums.

    Unfolds uint8 activations ``(N, Cin, H, W)`` into the transposed
    uint8 gather operand ``(Cin*kh*kw, N*OH*OW)`` that every C gather
    reads -- the same layout as
    ``im2col(x).transpose(1, 0, 2).reshape(K, -1)`` -- padding the
    border with the activation zero point ``zx``, then sums it per
    column in int64 (the weight-zero-point correction operand).  Pure
    data movement, so bit-identical to the numpy path; the execcore
    serve self-check proves that per platform before the C unfold is
    trusted.

    Returns ``(xq, colsum)`` or ``None`` when the kernel is unavailable
    (callers fall back to the numpy im2col pipeline).
    """
    lib = _get_kernel()
    if lib is None:
        return None
    if x.dtype != np.uint8 or x.ndim != 4:
        raise ValueError("im2col_serve expects a (N, C, H, W) uint8 array")
    if not 0 <= zx <= 0xFF:
        raise ValueError(f"im2col_serve: zero point {zx} is not a uint8")
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    k = c * kh * kw
    nc = n * oh * ow
    out = np.empty((k, nc), dtype=np.uint8)
    colsum = np.zeros(nc, dtype=np.int64)
    if k == 0 or nc == 0:
        return out, colsum
    x = np.ascontiguousarray(x)
    args = np.array(
        [
            x.ctypes.data, out.ctypes.data, colsum.ctypes.data,
            n, c, h, w, kh, kw, stride, pad, zx, oh, ow,
        ],
        dtype=np.int64,
    )
    lib.im2col_serve_call(args.ctypes.data)
    return out, colsum


def fold_input_grad(
    gx: np.ndarray,
    zcol: np.ndarray,
    sx: float,
    mask: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    threads: int | None = None,
) -> np.ndarray | None:
    """C fold of a conv layer's activation gradient back onto its input.

    The adjoint of :func:`im2col_serve`'s unfold, fused with the tail of
    Eq. 9: ``gx`` is the engine's raw ``(Cin*kh*kw, N*OH*OW)``
    activation gradient (float32 from the LUT backward, read as is and
    widened exactly; float64 from the STE fast path; anything else is
    converted to float64), ``zcol`` its ``(N*OH*OW,)`` zero-point column
    term and ``mask`` the ``(N, Cin, H, W)`` clipped-STE pixel mask.
    Returns the float64 ``(N, Cin, H, W)`` input gradient whose pixels
    sum ``((gx - zcol) / sx) * mask`` over their taps from ``+0.0`` in
    ascending ``(i, j)``, in float64 -- bit for bit the numpy fold
    (:func:`repro.core.execcore.fold_input_grad`'s fallback, the old
    ``col2im`` arithmetic).  ``threads`` splits the images (``None``
    reads ``REPRO_LUTKERNEL_THREADS``).  ``None`` when the kernel is
    unavailable.
    """
    n, c, h, w = mask.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if (
        oh < 1 or ow < 1
        or gx.shape != (c * kh * kw, n * oh * ow)
        or zcol.shape != (n * oh * ow,)
    ):
        raise ValueError(
            f"fold_input_grad: gx {gx.shape} / zcol {zcol.shape} do not "
            f"fit a {kh}x{kw} stride-{stride} pad-{pad} fold onto {mask.shape}"
        )
    lib = _get_kernel()
    if lib is None:
        return None
    out = np.empty((n, c, h, w), dtype=np.float64)
    if out.size == 0:
        return out
    if gx.dtype == np.float32:
        fold = lib.fold_input_grad_range_f32
        gx = np.ascontiguousarray(gx)
    else:
        fold = lib.fold_input_grad_range_f64
        gx = np.ascontiguousarray(gx, dtype=np.float64)
    zcol = np.ascontiguousarray(zcol, dtype=np.float64)
    mask = np.ascontiguousarray(mask, dtype=np.bool_).view(np.uint8)
    nthreads = threads_requested() if threads is None else max(int(threads), 1)

    def work(n_lo, n_hi, _slot):
        fold(
            gx, zcol, mask, out, float(sx), n, c, h, w, kh, kw, stride, pad,
            oh, ow, n_lo, n_hi,
        )

    with _TRACE.span("lutkernel.fold_input_grad", cat="engine"):
        _run_threaded(work, _row_ranges(n, nthreads))
    return out


def _chunk_ranges(c: int, chunk: int, nthreads: int) -> list[tuple[int, int]]:
    """Chunk-aligned column ranges covering ``[0, c)`` for ``nthreads``."""
    if c <= 0:
        return []
    n_chunks = -(-c // chunk)
    nthreads = max(1, min(nthreads, n_chunks))
    per = -(-n_chunks // nthreads) * chunk
    return [(lo, min(lo + per, c)) for lo in range(0, c, per)]


def fused_backward_grads(
    grad_w_flat: np.ndarray,
    grad_x_flat: np.ndarray,
    wrow: np.ndarray,
    xq: np.ndarray,
    gout: np.ndarray,
    chunk: int,
    threads: int | None = None,
    planes: np.ndarray | None = None,
    xq_bounds: tuple[int, int] | None = None,
    need_gx: bool = True,
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Fused difference-LUT backward: gradient-table gather + reduce.

    Computes the inner Eq. 9 sums (zero-point cross terms excluded --
    the engine applies those in closed form):

        ``gw[m, k] = sum_c grad_w_flat[wrow[m,k] + xq[k,c]] * gout[m,c]``
        ``gx[k, c] = sum_m grad_x_flat[wrow[m,k] + xq[k,c]] * gout[m,c]``

    Float32 accumulation replicates the numpy path's reduction orders
    (see the module docstring): ``gx`` exactly, and each per-chunk
    ``gw`` partial up to one zero sign (numpy sums a chunk of 8 or more
    all-``-0.0`` products to ``+0.0``, the C bodies to ``-0.0``).  The
    partials are merged into the float64 ``gw`` from ``+0.0`` in global
    chunk order, which hides that sign, so the output is bit-identical
    to the numpy fallback for every ``threads`` value.  When the operand
    extrema prove every index inside the smaller gradient table
    (:func:`_gather_in_bounds`) both gathers index directly; otherwise
    out-of-range indices clip into each table exactly like
    ``np.take(..., mode="clip")``.  The float32
    operation order is the same in both loops.  Given ``planes``
    (``byte_planes(grad_x_flat)``), a qualifying call runs the
    in-register AVX-512 VBMI body instead of the scalar loop
    (:func:`_gather_body`, with no bound on K and its own crossover,
    ``C >= VBMI_BWD_MIN_C``), in the same float order: ``gx`` gathers
    from the planes, ``gw`` sums lanes over rows from the table itself.
    Used as given, like :func:`fused_product_sums`'s, and so is
    ``xq_bounds``.  ``need_gx=False`` skips the ``gx`` sum (a layer
    whose input needs no gradient); ``gw`` is unchanged.

    Returns ``(gw, gx)``: float64 ``(M, K)`` and float32 ``(K, C)``,
    the dtype the sums are made in, written in place by the kernel
    (``gx`` is ``None`` without ``need_gx``), or ``None`` when the
    kernel is unavailable or an activation lies outside ``[0, 255]``
    (``xq`` is read as :func:`fused_product_sums` reads it; the numpy
    backward gives the same bits).  Raises ``ValueError`` when ``wrow``
    / ``xq`` are not 2-D or disagree on K, ``gout`` is not ``(M, C)``, a
    table is empty, ``chunk < 1``, or ``planes`` do not fit the ``gx``
    table.
    """
    chunk = int(chunk)
    if planes is not None and not isinstance(planes, np.ndarray):
        raise ValueError(
            "fused_backward_grads: planes must be byte_planes(grad_x_flat)"
        )
    _check_operands(
        "fused_backward_grads", (grad_w_flat, grad_x_flat), wrow, xq,
        (None, planes), n_planes=4, gout=np.asarray(gout), chunk=chunk,
    )
    lib = _get_kernel()
    if lib is None:
        return None
    parts = _backward_parts(
        lib, grad_w_flat, grad_x_flat, wrow, xq, gout, chunk, threads,
        planes, xq_bounds, need_gx,
    )
    if parts is None:
        return None
    gw_part, gx = parts
    # Merge weight-gradient chunk partials in global chunk order: float64
    # accumulation of float32 chunk sums, exactly like the numpy path's
    # per-chunk ``gw += buf.sum(axis=2)``.  This is what keeps every
    # thread count bit-identical to serial.
    gw = np.zeros(gw_part.shape[1:], dtype=np.float64)
    for part in gw_part:
        gw += part
    return gw, gx


def _backward_parts(
    lib, grad_w_flat, grad_x_flat, wrow, xq, gout, chunk, threads, planes,
    xq_bounds, need_gx, out=None,
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """``(gw_part, gx)``: :func:`fused_backward_grads` before its merge.

    Runs on operands the caller has checked; ``None`` when an activation
    is off the uint8 grid (:func:`_activation_operand`).
    ``gw_part[ci, m, k]`` is chunk ``ci``'s float32 pairwise sum.  Its
    zero signs do not survive the merge into ``+0.0``, so the VBMI
    self-check compares these sums between the two bodies directly.  ``out``, a C-contiguous float32
    ``(K, C)`` array, receives ``gx`` in place of a new one (the
    self-check surrounds it with canaries).
    """
    m, k = wrow.shape
    k2, c = xq.shape
    n_chunks = -(-c // chunk)
    degenerate = m == 0 or c == 0
    if not degenerate:
        wrow = np.ascontiguousarray(wrow, dtype=np.int64)
        ext = _extrema(wrow, xq, xq_bounds=xq_bounds)
        xq = _activation_operand(xq, ext)
        if xq is None:
            return None
    if need_gx:
        gx = np.empty((k2, c), dtype=np.float32) if out is None else out
        assert gx.dtype == np.float32 and gx.shape == (k2, c)
        assert gx.flags.c_contiguous
    else:
        gx = None
    if degenerate:
        # Matches the numpy path on degenerate shapes: zero weight
        # gradients, an empty/zero activation gradient, no kernel call.
        if gx is not None:
            gx[...] = 0.0
        return np.zeros((n_chunks, m, k), dtype=np.float32), gx
    grad_w_flat = np.ascontiguousarray(grad_w_flat, dtype=np.float32)
    grad_x_flat = np.ascontiguousarray(grad_x_flat, dtype=np.float32)
    gout = np.ascontiguousarray(gout, dtype=np.float32)
    gw_part = np.empty((n_chunks, m, k), dtype=np.float32)
    fast, vbmi = _gather_body(
        min(grad_w_flat.size, grad_x_flat.size), ext, k2, c, planes,
        max_k=None, min_c=VBMI_BWD_MIN_C,
    )
    nthreads = threads_requested() if threads is None else max(int(threads), 1)
    ranges = _chunk_ranges(c, chunk, nthreads)
    # Per-thread scratch.  Scalar loop: the chunk's product row.  VBMI
    # body: the gw sum's two T tiles (16 lanes by 256 activation values,
    # one per k of a pair) and its gT tile (by the chunk width rounded up
    # to 16), and the transposed index row padded to whole 64-lane blocks.
    width = min(chunk, c)
    if vbmi:
        n_tmp = 16 * (2 * 256 + -(-width // 16) * 16)
        xt = [_aligned_empty(-(-width // 64) * 64) for _ in ranges]
    else:
        n_tmp = width
        xt = [None] * len(ranges)
    tmp = [_aligned_empty(4 * n_tmp).view(np.float32) for _ in ranges]
    xmax = ext[3] if ext else 0

    def work(lo, hi, slot):
        lib.backward_grads_range(
            grad_w_flat, grad_w_flat.size, grad_x_flat, grad_x_flat.size,
            wrow, xq, gout, gw_part, _ptr(gx), tmp[slot],
            m, k2, c, chunk, lo, hi, fast, xmax,
            _ptr(planes if vbmi else None), _ptr(xt[slot]),
        )

    _TRACE.count("lutkernel.fused_backward_calls")
    with _TRACE.span("lutkernel.backward_grads", cat="engine"):
        _run_threaded(work, ranges)
    return gw_part, gx

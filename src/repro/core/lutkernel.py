"""Optional fused C kernels for the LUT-GEMM forward and backward.

The numpy forward path in :mod:`repro.core.lutgemm` needs three full
passes over an ``(M, K, C)`` temporary (index build, ``np.take`` gather,
strided reduction), and the retraining backward needs two more gathers
plus two reductions against the upstream gradient.  Those temporaries
dominate both serving latency and retrain epoch time, so this module
JIT-compiles single-pass C kernels at first use:

* ``fused_product_sums`` -- the forward gather-accumulate
  ``acc[m, c] = sum_k lut[wrow[m, k] + xq[k, c]]`` (int64 or int32
  accumulators; pure integer, bit-identical to numpy by construction).

* ``fused_serve`` -- the fused integer *serving* op: the same gather,
  then the weight-zero-point correction ``A = acc - Z_w * colsum``, the
  fixed-point requantization ``(A * M0 + D0 + 2**(shift-1)) >> shift``
  (round half up, arithmetic shift -- the
  :mod:`repro.nn.requant` convention), and the saturating uint8 clamp
  ``[qlo, qhi]`` (``qlo = max(qmin, Z)`` folds the integer ReLU), all
  inside one row loop so the accumulator never leaves cache.  Per-row
  constants are indexed with a 0/1 stride so per-tensor (size-1) and
  per-channel (size-M) blocks -- including read-only shared-memory
  views -- are consumed in place, zero-copy.

* ``fused_backward_grads`` -- the difference-LUT backward: one
  cache-tiled loop per column chunk gathers *both* gradient tables from
  the shared index and reduces against the upstream gradient.  Float32
  partial sums replicate numpy's reduction orders exactly -- the
  scalar pairwise algorithm for the per-``(m, k)`` sum over columns
  (``buf.sum(axis=2)``) and sequential-over-rows accumulation for the
  activation gradient (``buf.sum(axis=0)``) -- and per-chunk weight
  partials are merged in global chunk order, so results are
  bit-identical to the numpy path (verified at runtime by
  :mod:`repro.core.execcore` before the kernel is trusted).

Optional threading: ``REPRO_LUTKERNEL_THREADS=N`` splits the forward
over row blocks and the backward over chunk-aligned column blocks.
ctypes releases the GIL for the duration of each call, partitions are
disjoint, and the weight-gradient merge always runs in global chunk
order, so results are bit-identical for every thread count.

Compilation uses the system ``cc``/``gcc`` (no third-party packages)
with ``-ffp-contract=off`` so the compiler cannot fuse the backward's
multiply-adds into FMAs (which would change float32 rounding vs numpy).
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
 * of reading out of bounds.
 */
static inline long clamp_idx(int64_t id, long n)
{
    if (id < 0) return 0;
    if (id >= n) return n - 1;
    return (long) id;
}

/* ------------------------------------------------------------------
 * Forward: acc[m, c] = sum_k lut[wrow[m, k] + xq[k, c]] over rows
 * [m_lo, m_hi).  Integer arithmetic: bit-identical to numpy for any
 * row partition, which is what makes threading over row blocks safe.
 * One body per accumulator width: product_sums_range (int64) and
 * product_sums_i32_range (int32, half the accumulator write traffic).
 * Callers of the int32 instance must guarantee K * max|lut| < 2**31
 * (checked in LutGemm.int32_acc_safe); within that bound results are
 * bit-identical to product_sums_range.
 */
#define DEFINE_PRODUCT_SUMS_RANGE(NAME, ACC_T)                          \
void NAME(const int32_t *lut, long n_lut,                               \
          const int64_t *wrow,   /* (M, K): wq * levels */              \
          const int32_t *xq,     /* (K, C) quantized acts */            \
          ACC_T *out,            /* (M, C), rows overwritten */         \
          long M, long K, long C,                                       \
          long m_lo, long m_hi)                                         \
{                                                                       \
    for (long m = m_lo; m < m_hi; m++) {                                \
        const int64_t *wr = wrow + m * K;                               \
        ACC_T *acc = out + m * C;                                       \
        for (long c = 0; c < C; c++)                                    \
            acc[c] = 0;                                                 \
        for (long k = 0; k < K; k++) {                                  \
            const int64_t base = wr[k];                                 \
            const int32_t *xrow = xq + k * C;                           \
            for (long c = 0; c < C; c++)                                \
                acc[c] += lut[clamp_idx(base + xrow[c], n_lut)];        \
        }                                                               \
    }                                                                   \
}

DEFINE_PRODUCT_SUMS_RANGE(product_sums_range, int64_t)
DEFINE_PRODUCT_SUMS_RANGE(product_sums_i32_range, int32_t)

/* ------------------------------------------------------------------
 * Fused integer serving op over rows [m_lo, m_hi): LUT gather +
 * weight-zero-point correction + fixed-point requantization + clamp,
 * the whole pipeline per output row while the accumulator row is hot:
 *
 *   acc[c]   = sum_k lut[wrow[m, k] + xq[k, c]]           (accrow)
 *   A        = acc[c] - zw[m * zw_stride] * colsum[c]     (int64)
 *   t        = A * m0[m * rq] + d0[m * rq]                (int64)
 *   q        = (t + (sh > 0 ? 1 << (sh - 1) : 0)) >> sh   (round half up)
 *   out[m,c] = clamp(q, qlo, qhi)                         (uint8)
 *
 * The requant line is exactly repro.nn.requant.rounding_right_shift
 * (round half toward +inf via an arithmetic shift; shift == 0 adds no
 * half) -- verified bit-identical against the numpy reference by the
 * execcore serve self-check before the kernel is trusted.  zw_stride /
 * rq_stride are 0 for per-tensor (size-1) constant arrays and 1 for
 * per-channel (size-M) ones, so both layouts -- including read-only
 * shm views -- are read in place.  qlo already folds the integer ReLU
 * (max(q, Z) == a raised lower clamp, since Z >= qmin).  accrow is
 * per-thread scratch of >= C entries; rows are disjoint, so threading
 * over row blocks is bit-identical for every thread count.
 *
 * One body per accumulator-row width: fused_serve_range (int64) and
 * fused_serve_i32_range (int32, half the accumulator traffic).  Callers
 * of the int32 instance must guarantee K * max|lut| < 2**31 (checked in
 * LutGemm.int32_acc_safe); each accumulator is widened to int64 before
 * the correction, so the requant math always runs in int64 and within
 * that bound the two are bit-identical.  Only fused_serve_call below
 * reaches them, hence static.
 *
 * ``fast`` (last parameter) is a caller-proven in-bounds flag: the
 * Python wrapper checks min(wrow) + min(xq) >= 0 and
 * max(wrow) + max(xq) < n_lut with SIMD numpy reductions (the wrow
 * bounds are input-independent and cached per plan op), which holds
 * for every real serving input (wq in [0, levels), xq clipped onto
 * the uint8 grid).  When set, the gather skips clamp_idx -- whose
 * cmp/cmov chain sits on the address-generation critical path and
 * costs ~2.7x on conv-shaped gathers -- and out-of-range data falls
 * back to the exact clamp loop, so results are bit-identical either
 * way.  C == 1 (linear single-sample) rows take a scalar reduction
 * with four independent int64 accumulator chains instead (inside the
 * int32-safe bound they give the same value as int32 accumulation):
 * the column loop has no parallelism to hide the gather latency, the
 * chains do.
 *
 * accrow's restrict matters: without it the accrow store may alias
 * the next xq load and the gather runs serialized (~1.7x).
 */
#define DEFINE_FUSED_SERVE_RANGE(NAME, ACC_T)                           \
static void NAME(const int32_t *restrict lut, long n_lut,               \
                 /* (M, K): wq * levels */                              \
                 const int64_t *restrict wrow,                          \
                 /* (K, C) quantized acts */                            \
                 const int32_t *restrict xq,                            \
                 /* (C,): xq.sum(axis=0) */                             \
                 const int64_t *restrict colsum,                        \
                 const int64_t *restrict zw, long zw_stride,            \
                 const int64_t *restrict m0,                            \
                 const int64_t *restrict d0,                            \
                 const int64_t *restrict shift, long rq_stride,         \
                 long qlo, long qhi,                                    \
                 uint8_t *restrict out,  /* (M, C) */                   \
                 ACC_T *restrict accrow, /* scratch, >= C */            \
                 long M, long K, long C,                                \
                 long m_lo, long m_hi, long fast)                       \
{                                                                       \
    if (C == 1) {                                                       \
        for (long m = m_lo; m < m_hi; m++) {                            \
            const int64_t *wr = wrow + m * K;                           \
            int64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;                     \
            long k = 0;                                                 \
            if (fast) {                                                 \
                for (; k + 4 <= K; k += 4) {                            \
                    a0 += lut[wr[k] + xq[k]];                           \
                    a1 += lut[wr[k + 1] + xq[k + 1]];                   \
                    a2 += lut[wr[k + 2] + xq[k + 2]];                   \
                    a3 += lut[wr[k + 3] + xq[k + 3]];                   \
                }                                                       \
                for (; k < K; k++)                                      \
                    a0 += lut[wr[k] + xq[k]];                           \
            } else {                                                    \
                for (; k < K; k++)                                      \
                    a0 += lut[clamp_idx(wr[k] + xq[k], n_lut)];         \
            }                                                           \
            const int64_t acc = a0 + a1 + a2 + a3;                      \
            const int64_t t =                                           \
                (acc - zw[m * zw_stride] * colsum[0]) * m0[m * rq_stride] \
                + d0[m * rq_stride];                                    \
            const long sh = (long) shift[m * rq_stride];                \
            const int64_t half = sh > 0 ? (int64_t) 1 << (sh - 1) : 0;  \
            int64_t q = (t + half) >> sh;                               \
            if (q < qlo) q = qlo;                                       \
            if (q > qhi) q = qhi;                                       \
            out[m] = (uint8_t) q;                                       \
        }                                                               \
        return;                                                         \
    }                                                                   \
    for (long m = m_lo; m < m_hi; m++) {                                \
        const int64_t *wr = wrow + m * K;                               \
        for (long c = 0; c < C; c++)                                    \
            accrow[c] = 0;                                              \
        if (fast) {                                                     \
            for (long k = 0; k < K; k++) {                              \
                const int64_t base = wr[k];                             \
                const int32_t *xrow = xq + k * C;                       \
                for (long c = 0; c < C; c++)                            \
                    accrow[c] += lut[base + xrow[c]];                   \
            }                                                           \
        } else {                                                        \
            for (long k = 0; k < K; k++) {                              \
                const int64_t base = wr[k];                             \
                const int32_t *xrow = xq + k * C;                       \
                for (long c = 0; c < C; c++)                            \
                    accrow[c] += lut[clamp_idx(base + xrow[c], n_lut)]; \
            }                                                           \
        }                                                               \
        const int64_t zwm = zw[m * zw_stride];                          \
        const int64_t mm = m0[m * rq_stride];                           \
        const int64_t dm = d0[m * rq_stride];                           \
        const long sh = (long) shift[m * rq_stride];                    \
        const int64_t half = sh > 0 ? (int64_t) 1 << (sh - 1) : 0;      \
        uint8_t *orow = out + m * C;                                    \
        for (long c = 0; c < C; c++) {                                  \
            int64_t t =                                                 \
                ((int64_t) accrow[c] - zwm * colsum[c]) * mm + dm;      \
            int64_t q = (t + half) >> sh;                               \
            if (q < qlo) q = qlo;                                       \
            if (q > qhi) q = qhi;                                       \
            orow[c] = (uint8_t) q;                                      \
        }                                                               \
    }                                                                   \
}

DEFINE_FUSED_SERVE_RANGE(fused_serve_range, int64_t)
DEFINE_FUSED_SERVE_RANGE(fused_serve_i32_range, int32_t)

/* Packed-argument entry point for the fused serving kernels.  A plan
 * op calls this once per row range per sample, and ctypes marshalling
 * of the 21 individual arguments costs ~20us per call with ndpointer
 * validation -- comparable to the kernel itself on the smaller layers.
 * Packing them into one block of int64 slots (pointers and scalars
 * alike; every field is 8 bytes, so the numpy side fills a plain int64
 * row and no padding can appear) makes the crossing a single-pointer
 * call.  Slot order must match _FUSED_ARGS_* in the Python wrapper. */
typedef struct {
    int64_t lut;        /* const int32_t* */
    int64_t n_lut;
    int64_t wrow;       /* const int64_t* */
    int64_t xq;         /* const int32_t* */
    int64_t colsum;     /* const int64_t* */
    int64_t zw;         /* const int64_t* */
    int64_t zw_stride;
    int64_t m0;         /* const int64_t* */
    int64_t d0;         /* const int64_t* */
    int64_t shift;      /* const int64_t* */
    int64_t rq_stride;
    int64_t qlo;
    int64_t qhi;
    int64_t out;        /* uint8_t* */
    int64_t accrow;     /* int64_t* or int32_t*, per acc_is32 */
    int64_t M, K, C;
    int64_t m_lo, m_hi;
    int64_t fast;
    int64_t acc_is32;
} fused_serve_args;

void fused_serve_call(const fused_serve_args *a)
{
    if (a->acc_is32)
        fused_serve_i32_range(
            (const int32_t *) a->lut, (long) a->n_lut,
            (const int64_t *) a->wrow, (const int32_t *) a->xq,
            (const int64_t *) a->colsum,
            (const int64_t *) a->zw, (long) a->zw_stride,
            (const int64_t *) a->m0, (const int64_t *) a->d0,
            (const int64_t *) a->shift, (long) a->rq_stride,
            (long) a->qlo, (long) a->qhi,
            (uint8_t *) a->out, (int32_t *) a->accrow,
            (long) a->M, (long) a->K, (long) a->C,
            (long) a->m_lo, (long) a->m_hi, (long) a->fast);
    else
        fused_serve_range(
            (const int32_t *) a->lut, (long) a->n_lut,
            (const int64_t *) a->wrow, (const int32_t *) a->xq,
            (const int64_t *) a->colsum,
            (const int64_t *) a->zw, (long) a->zw_stride,
            (const int64_t *) a->m0, (const int64_t *) a->d0,
            (const int64_t *) a->shift, (long) a->rq_stride,
            (long) a->qlo, (long) a->qhi,
            (uint8_t *) a->out, (int64_t *) a->accrow,
            (long) a->M, (long) a->K, (long) a->C,
            (long) a->m_lo, (long) a->m_hi, (long) a->fast);
}

/* Serving-path im2col: unfold (N, Cin, H, W) uint8 activations into
 * the (K, NC) int32 gather operand (K = Cin*kh*kw, NC = N*oh*ow),
 * padding with the uint8 activation zero point zx, and accumulate the
 * per-column sums (the zero-point correction operand) in the same
 * pass.  Replaces a numpy strided copy + int32 convert + column sum
 * (~70us on a 24x24 conv layer) with one ~15us sweep.  Pure data
 * movement: bit-identical to the numpy path by construction, and
 * proven so per platform by the execcore serve self-check. */
typedef struct {
    int64_t x;        /* const uint8_t*, (N, Cin, H, W) C-contiguous */
    int64_t out;      /* int32_t*, (K, NC) */
    int64_t colsum;   /* int64_t*, (NC,) -- written, not read */
    int64_t N, Cin, H, W;
    int64_t kh, kw, stride, pad, zx;
    int64_t oh, ow;
} im2col_args;

void im2col_serve_call(const im2col_args *a)
{
    const uint8_t *restrict x = (const uint8_t *) a->x;
    int32_t *restrict out = (int32_t *) a->out;
    int64_t *restrict colsum = (int64_t *) a->colsum;
    const long N = (long) a->N, Cin = (long) a->Cin;
    const long H = (long) a->H, W = (long) a->W;
    const long kh = (long) a->kh, kw = (long) a->kw;
    const long stride = (long) a->stride, pad = (long) a->pad;
    const long oh = (long) a->oh, ow = (long) a->ow;
    const int32_t zx = (int32_t) a->zx;
    const long NC = N * oh * ow;
    for (long col = 0; col < NC; col++)
        colsum[col] = 0;
    int32_t *o = out;
    for (long ci = 0; ci < Cin; ci++)
    for (long i = 0; i < kh; i++)
    for (long j = 0; j < kw; j++) {
        /* One output row k = (ci*kh + i)*kw + j; o and cs walk the NC
         * columns (nn, y, xx) in order. */
        int64_t *cs = colsum;
        for (long nn = 0; nn < N; nn++) {
            const uint8_t *xc = x + (nn * Cin + ci) * H * W;
            for (long y = 0; y < oh; y++) {
                const long ys = y * stride + i - pad;
                if (ys < 0 || ys >= H) {
                    for (long xx = 0; xx < ow; xx++) {
                        *o++ = zx;
                        *cs++ += zx;
                    }
                    continue;
                }
                const uint8_t *xrow = xc + ys * W;
                if (stride == 1) {
                    /* Split the row at the pad borders once instead of
                     * bounds-checking every element. */
                    long x0 = pad - j;
                    if (x0 < 0) x0 = 0;
                    if (x0 > ow) x0 = ow;
                    long x1 = W + pad - j;
                    if (x1 > ow) x1 = ow;
                    if (x1 < x0) x1 = x0;
                    long xx = 0;
                    for (; xx < x0; xx++) {
                        *o++ = zx;
                        *cs++ += zx;
                    }
                    const uint8_t *src = xrow + j - pad;
                    for (; xx < x1; xx++) {
                        const int32_t v = (int32_t) src[xx];
                        *o++ = v;
                        *cs++ += v;
                    }
                    for (; xx < ow; xx++) {
                        *o++ = zx;
                        *cs++ += zx;
                    }
                } else {
                    for (long xx = 0; xx < ow; xx++) {
                        const long xs = xx * stride + j - pad;
                        const int32_t v =
                            (xs < 0 || xs >= W) ? zx : (int32_t) xrow[xs];
                        *o++ = v;
                        *cs++ += v;
                    }
                }
            }
        }
    }
}

/* ------------------------------------------------------------------
 * numpy's scalar pairwise summation (umath loops.c.src), float32.
 * Reproduced operation-for-operation so the per-(m, k) column-chunk
 * sum below is bit-identical to ``buf.sum(axis=2)`` on the numpy
 * path.  PW_BLOCKSIZE = 128, 8-way unrolled inner block.
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
 * Fused difference-LUT backward over columns [c_lo, c_hi), which must
 * be chunk-aligned (c_lo % chunk == 0).  One cache-tiled loop per
 * chunk gathers BOTH gradient tables from the shared flat index
 * wrow[m, k] + xq[k, c] and reduces against gout:
 *
 *   gw_part[ci, m, k] = pairwise_f32 over the chunk's columns of
 *                       gwtab[idx] * gout[m, c]      (== buf.sum(axis=2))
 *   gx[k, c]          = f32 sum over m (sequential) of
 *                       gxtab[idx] * gout[m, c]      (== buf.sum(axis=0))
 *
 * gw chunk partials are indexed by GLOBAL chunk number ci so the
 * caller can merge them into the float64 gw in deterministic chunk
 * order regardless of how column blocks were split across threads.
 * tmp (>= chunk floats) and gx32 (>= K * chunk floats) are per-thread
 * scratch supplied by the caller.
 */
void backward_grads_range(const float *gwtab, long n_gw,
                          const float *gxtab, long n_gx,
                          const int64_t *wrow,   /* (M, K): wq * levels */
                          const int32_t *xq,     /* (K, C) */
                          const float *gout,     /* (M, C) */
                          float *gw_part,        /* (n_chunks, M, K) */
                          double *gx,            /* (K, C) */
                          float *tmp,
                          float *gx32,
                          long M, long K, long C, long chunk,
                          long c_lo, long c_hi)
{
    for (long c0 = c_lo; c0 < c_hi; c0 += chunk) {
        long hi = c0 + chunk < c_hi ? c0 + chunk : c_hi;
        long cc = hi - c0;
        float *gwp = gw_part + (c0 / chunk) * M * K;
        for (long i = 0; i < K * cc; i++)
            gx32[i] = 0.0f;
        for (long m = 0; m < M; m++) {
            const int64_t *wr = wrow + m * K;
            const float *grow = gout + m * C + c0;
            for (long k = 0; k < K; k++) {
                const int64_t base = wr[k];
                const int32_t *xrow = xq + k * C + c0;
                float *gxr = gx32 + k * cc;
                for (long c = 0; c < cc; c++) {
                    const int64_t id = base + xrow[c];
                    const float gv = grow[c];
                    tmp[c] = gwtab[clamp_idx(id, n_gw)] * gv;
                    gxr[c] += gxtab[clamp_idx(id, n_gx)] * gv;
                }
                gwp[m * K + k] = pairwise_sum_f32(tmp, cc);
            }
        }
        for (long k = 0; k < K; k++) {
            double *gxd = gx + k * C + c0;
            const float *gxr = gx32 + k * cc;
            for (long c = 0; c < cc; c++)
                gxd[c] = (double) gxr[c];
        }
    }
}
"""

_lock = threading.Lock()
_lib: "ctypes.CDLL | None" = None
_compile_attempted = False


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
        # -ffp-contract=off: the backward's float32 mul-then-add sequences
        # must round exactly like numpy's separate ufunc passes; a fused
        # FMA would skip the intermediate rounding and break bit-identity.
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
    _i32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
    _f32 = np.ctypeslib.ndpointer(np.float32, flags="C_CONTIGUOUS")
    _f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    _long = ctypes.c_long
    # Packed-argument entries: one pointer crosses the FFI boundary, so
    # per-call marshalling stays ~1us instead of ~20us for 21 args.
    for sym in ("fused_serve_call", "im2col_serve_call"):
        packed = getattr(lib, sym)
        packed.restype = None
        packed.argtypes = [ctypes.c_void_p]
    fn = lib.product_sums_range
    fn.restype = None
    fn.argtypes = [
        _i32, _long, _i64, _i32, _i64, _long, _long, _long, _long, _long,
    ]
    fn32 = lib.product_sums_i32_range
    fn32.restype = None
    fn32.argtypes = [
        _i32, _long, _i64, _i32, _i32, _long, _long, _long, _long, _long,
    ]
    bwd = lib.backward_grads_range
    bwd.restype = None
    bwd.argtypes = [
        _f32, _long, _f32, _long, _i64, _i32, _f32, _f32, _f64, _f32, _f32,
        _long, _long, _long, _long, _long, _long,
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
    global _lib, _compile_attempted
    if _compile_attempted:
        return _lib
    with _lock:
        if not _compile_attempted:
            _lib = _compile()
            _compile_attempted = True
    return _lib


def reset_kernel_cache() -> None:
    """Forget the loaded/failed kernel state (tests, ``--no-cckernel``).

    The next :func:`_get_kernel` call re-evaluates ``REPRO_NO_CCKERNEL``
    and, if allowed, re-attempts the build (the compiled ``.so`` disk
    cache makes that cheap).  Also resets the execution core's backward
    self-check via :func:`repro.core.execcore.reset_backend_state` --
    use that entry point unless you specifically want only this half.
    """
    global _lib, _compile_attempted
    with _lock:
        _lib = None
        _compile_attempted = False


def kernel_available() -> bool:
    """Whether the fused C kernels compiled and loaded (env honored)."""
    return _get_kernel() is not None


def compile_attempted() -> bool:
    """Whether this process already spent its one JIT build attempt."""
    return _compile_attempted


def threads_requested() -> int:
    """Thread count from ``REPRO_LUTKERNEL_THREADS`` (default/invalid: 1)."""
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(n, 1)


def _run_threaded(work, ranges) -> None:
    """Run ``work(lo, hi, slot)`` over ``ranges``; threaded when > 1 range.

    ctypes drops the GIL while the kernel executes, so plain threads get
    real parallelism; every range writes disjoint output, so the result
    is independent of the interleaving.
    """
    if not ranges:
        return
    if len(ranges) == 1:
        lo, hi = ranges[0]
        work(lo, hi, 0)
        return
    threads = [
        threading.Thread(target=work, args=(lo, hi, slot), daemon=True)
        for slot, (lo, hi) in enumerate(ranges)
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


def fused_product_sums(
    lut_flat: np.ndarray,
    wrow: np.ndarray,
    xq: np.ndarray,
    acc_dtype=np.int64,
    threads: int | None = None,
) -> np.ndarray | None:
    """``out[m, c] = sum_k lut_flat[wrow[m, k] + xq[k, c]]``.

    Out-of-range indices clip into the table exactly like the numpy
    path's ``np.take(..., mode="clip")`` -- diverged operands (NaN
    weights quantizing to INT32_MIN) degrade identically on both
    backends instead of faulting.

    Args:
        lut_flat: Flat int32 product LUT of size ``levels**2``.
        wrow: (M, K) int64 precomputed row offsets (``wq * levels``).
        xq: (K, C) int32 quantized activations, values in ``[0, levels)``.
        acc_dtype: ``np.int64`` (default) or ``np.int32``.  The int32
            variant halves accumulator write traffic; the caller must
            guarantee ``K * max|lut| < 2**31`` (see
            ``LutGemm.int32_acc_safe``) -- within that bound the two are
            bit-identical.
        threads: Row-block thread count; ``None`` reads
            ``REPRO_LUTKERNEL_THREADS``.  Integer accumulation over
            disjoint rows: bit-identical for every value.

    Returns:
        The (M, C) accumulator in ``acc_dtype``, or ``None`` when the
        kernel is unavailable (callers must fall back to the numpy path).
    """
    lib = _get_kernel()
    if lib is None:
        return None
    m, k = wrow.shape
    k2, c = xq.shape
    acc_dtype = np.dtype(acc_dtype)
    if m == 0 or c == 0:
        # Empty micro-batch: an empty accumulator, never a kernel call
        # (the row/chunk partitioners have no ranges to offer).
        return np.zeros((m, c), dtype=acc_dtype)
    fn = (
        lib.product_sums_i32_range
        if acc_dtype == np.int32
        else lib.product_sums_range
    )
    out = np.empty((m, c), dtype=acc_dtype)
    # ascontiguousarray is a no-op for the common already-contiguous case
    # and transparently fixes Fortran-ordered / sliced views coming out
    # of transpose-heavy tape paths (the ndpointer signatures reject
    # anything non-contiguous outright).
    lut_flat = np.ascontiguousarray(lut_flat, dtype=np.int32)
    wrow = np.ascontiguousarray(wrow, dtype=np.int64)
    xq = np.ascontiguousarray(xq, dtype=np.int32)
    nthreads = threads_requested() if threads is None else max(int(threads), 1)
    ranges = _row_ranges(m, nthreads)

    def work(lo, hi, _slot):
        fn(lut_flat, lut_flat.size, wrow, xq, out, m, k2, c, lo, hi)

    _TRACE.count("lutkernel.fused_calls")
    with _TRACE.span("lutkernel.product_sums", cat="engine"):
        _run_threaded(work, ranges)
    return out


def _const_row(arr: np.ndarray, m: int, what: str) -> tuple[np.ndarray, int]:
    """Normalize a per-row constant block to (contiguous int64 1-D, stride).

    Size-1 blocks (per-tensor) get stride 0, size-``m`` blocks
    (per-channel) stride 1, so the kernel indexes either layout in place
    -- shm-backed read-only views included (already contiguous, so
    ``ascontiguousarray`` is a no-op and the read stays zero-copy).
    """
    out = np.ascontiguousarray(np.ravel(arr), dtype=np.int64)
    if out.size == 1:
        return out, 0
    if out.size != m:
        raise ValueError(
            f"fused_serve: {what} has {out.size} entries, expected 1 or {m}"
        )
    return out, 1


def fused_serve(
    lut_flat: np.ndarray,
    wrow: np.ndarray,
    xq: np.ndarray,
    colsum: np.ndarray,
    zw: np.ndarray,
    m0: np.ndarray,
    d0: np.ndarray,
    shift: np.ndarray,
    qlo: int,
    qhi: int,
    acc_dtype=np.int64,
    threads: int | None = None,
    wrow_bounds: tuple[int, int] | None = None,
    xq_bounds: tuple[int, int] | None = None,
) -> np.ndarray | None:
    """Fused integer serving op: gather + correct + requantize + clamp.

    One C loop per output row computes, entirely in integers::

        A[c] = sum_k lut_flat[wrow[m, k] + xq[k, c]] - zw[m] * colsum[c]
        out[m, c] = clip((A[c] * m0[m] + d0[m] + half) >> shift[m],
                         qlo, qhi)        # half = 2**(shift-1), 0 at 0

    following the :func:`repro.nn.requant.rounding_right_shift`
    round-half-up convention exactly (pinned by the execcore serve
    self-check).  ``qlo`` folds the integer ReLU: ``max(q, Z)`` over a
    ``[qmin, qmax]`` clip equals a single ``[max(qmin, Z), qmax]`` clip.
    Out-of-range gather indices clip into the table like
    ``np.take(mode="clip")``.

    Args:
        lut_flat: Flat int32 product LUT of size ``levels**2``.
        wrow: (M, K) int64 precomputed row offsets (``wq * levels``).
        xq: (K, C) int32 quantized activations.
        colsum: (C,) int64 column sums of ``xq`` (shared across row
            blocks, so the caller computes it once).
        zw: Weight zero point(s): size 1 (per-tensor) or M (per-channel).
        m0 / d0 / shift: Fixed-point requant constants, each size 1 or M
            -- :class:`repro.nn.requant.RequantParams` fields, possibly
            shm-backed views (read in place, zero-copy).
        qlo / qhi: Saturation rails of the uint8 output grid; must
            satisfy ``0 <= qlo <= qhi <= 255``.
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

    Returns:
        The (M, C) uint8 output, or ``None`` when the kernel is
        unavailable (callers fall back to the unfused numpy pipeline).
    """
    lib = _get_kernel()
    if lib is None:
        return None
    m, k = wrow.shape
    k2, c = xq.shape
    out = np.empty((m, c), dtype=np.uint8)
    if m == 0 or c == 0:
        return out
    if not (0 <= qlo <= qhi <= 0xFF):
        raise ValueError(f"fused_serve: uint8 rails out of range [{qlo}, {qhi}]")
    acc_dtype = np.dtype(acc_dtype)
    lut_flat = np.ascontiguousarray(lut_flat, dtype=np.int32)
    wrow = np.ascontiguousarray(wrow, dtype=np.int64)
    xq = np.ascontiguousarray(xq, dtype=np.int32)
    colsum = np.ascontiguousarray(colsum, dtype=np.int64)
    zw, zw_stride = _const_row(zw, m, "zw")
    m0, rq_stride = _const_row(m0, m, "m0")
    d0, d0_stride = _const_row(d0, m, "d0")
    shift, sh_stride = _const_row(shift, m, "shift")
    if not (rq_stride == d0_stride == sh_stride):
        raise ValueError("fused_serve: m0/d0/shift layout mismatch")
    # In-bounds proof for the no-clamp gather: conservative array-wide
    # extrema (SIMD reductions; ~1% of the gather they remove).
    if k2 > 0:
        wmin, wmax = wrow_bounds if wrow_bounds is not None else (
            int(wrow.min()), int(wrow.max())
        )
        xmin, xmax = xq_bounds if xq_bounds is not None else (
            int(xq.min()), int(xq.max())
        )
        fast = int(wmin + xmin >= 0 and wmax + xmax < lut_flat.size)
    else:
        fast = 0
    nthreads = threads_requested() if threads is None else max(int(threads), 1)
    ranges = _row_ranges(m, nthreads)
    # Per-thread accumulator row: the tile that never leaves cache.
    accrow = [np.empty(c, dtype=acc_dtype) for _ in ranges]
    # One packed int64 argument block per row range -- slot order
    # matches the C ``fused_serve_args`` struct, so a single-pointer
    # call replaces 21 individually marshalled arguments.
    args = np.empty((len(ranges), 22), dtype=np.int64)
    args[:, :18] = (
        lut_flat.ctypes.data, lut_flat.size, wrow.ctypes.data,
        xq.ctypes.data, colsum.ctypes.data, zw.ctypes.data, zw_stride,
        m0.ctypes.data, d0.ctypes.data, shift.ctypes.data, rq_stride,
        qlo, qhi, out.ctypes.data, 0, m, k2, c,
    )
    args[:, 20] = fast
    args[:, 21] = int(acc_dtype == np.int32)
    for i, (lo, hi) in enumerate(ranges):
        args[i, 14] = accrow[i].ctypes.data
        args[i, 18] = lo
        args[i, 19] = hi
    base = args.ctypes.data
    row_bytes = args.strides[0]
    call = lib.fused_serve_call

    def work(lo, hi, slot):
        call(base + slot * row_bytes)

    _TRACE.count("lutkernel.fused_serve_calls")
    with _TRACE.span("lutkernel.fused_serve", cat="engine"):
        _run_threaded(work, ranges)
    return out


def im2col_serve(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    zx: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """C im2col for the fused serving path, with column sums fused in.

    Unfolds uint8 activations ``(N, Cin, H, W)`` into the transposed
    gather operand ``(Cin*kh*kw, N*OH*OW) int32`` expected by
    :func:`fused_serve` -- the same layout as
    ``im2col(x).transpose(1, 0, 2).reshape(K, -1)`` -- padding the
    border with the activation zero point ``zx``, and accumulates the
    per-column sums (the weight-zero-point correction operand) in the
    same pass.  Pure data movement, so bit-identical to the numpy path;
    the execcore serve self-check proves that per platform before the
    serving backend is trusted.

    Returns ``(xq, colsum)`` or ``None`` when the kernel is unavailable
    (callers fall back to the numpy im2col pipeline).
    """
    lib = _get_kernel()
    if lib is None:
        return None
    if x.dtype != np.uint8 or x.ndim != 4:
        raise ValueError("im2col_serve expects a (N, C, H, W) uint8 array")
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    k = c * kh * kw
    nc = n * oh * ow
    out = np.empty((k, nc), dtype=np.int32)
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
) -> tuple[np.ndarray, np.ndarray] | None:
    """Fused difference-LUT backward: gradient-table gather + reduce.

    Computes the inner Eq. 9 sums (zero-point cross terms excluded --
    the engine applies those in closed form):

        ``gw[m, k] = sum_c grad_w_flat[wrow[m,k] + xq[k,c]] * gout[m,c]``
        ``gx[k, c] = sum_m grad_x_flat[wrow[m,k] + xq[k,c]] * gout[m,c]``

    Float32 accumulation replicates the numpy path's reduction orders
    exactly (see the module docstring), and per-chunk ``gw`` partials
    are merged into the float64 result in global chunk order, so the
    output is bit-identical to the numpy fallback for every
    ``threads`` value.  Out-of-range indices clip into each gradient
    table exactly like ``np.take(..., mode="clip")``.

    Returns ``(gw, gx)`` as float64 ``(M, K)`` / ``(K, C)`` arrays, or
    ``None`` when the kernel is unavailable.
    """
    lib = _get_kernel()
    if lib is None:
        return None
    m, k = wrow.shape
    k2, c = xq.shape
    if m == 0 or c == 0:
        # Matches the numpy path on degenerate shapes: zero weight
        # gradients, an empty/zero activation gradient, no kernel call.
        return (
            np.zeros((m, k), dtype=np.float64),
            np.zeros((k2, c), dtype=np.float64),
        )
    chunk = int(chunk)
    n_chunks = -(-c // chunk)
    grad_w_flat = np.ascontiguousarray(grad_w_flat, dtype=np.float32)
    grad_x_flat = np.ascontiguousarray(grad_x_flat, dtype=np.float32)
    wrow = np.ascontiguousarray(wrow, dtype=np.int64)
    xq = np.ascontiguousarray(xq, dtype=np.int32)
    gout = np.ascontiguousarray(gout, dtype=np.float32)
    gw_part = np.empty((n_chunks, m, k), dtype=np.float32)
    gx = np.empty((k2, c), dtype=np.float64)
    nthreads = threads_requested() if threads is None else max(int(threads), 1)
    ranges = _chunk_ranges(c, chunk, nthreads)
    # Per-thread scratch: the chunk product row and the float32 gx tile.
    tmp = [np.empty(chunk, dtype=np.float32) for _ in ranges]
    gx32 = [np.empty(k2 * chunk, dtype=np.float32) for _ in ranges]

    def work(lo, hi, slot):
        lib.backward_grads_range(
            grad_w_flat, grad_w_flat.size, grad_x_flat, grad_x_flat.size,
            wrow, xq, gout, gw_part, gx, tmp[slot], gx32[slot],
            m, k2, c, chunk, lo, hi,
        )

    _TRACE.count("lutkernel.fused_backward_calls")
    with _TRACE.span("lutkernel.backward_grads", cat="engine"):
        _run_threaded(work, ranges)
    # Merge weight-gradient chunk partials in global chunk order: float64
    # accumulation of float32 chunk sums, exactly like the numpy path's
    # per-chunk ``gw += buf.sum(axis=2)``.  This is what keeps every
    # thread count bit-identical to serial.
    gw = np.zeros((m, k), dtype=np.float64)
    for ci in range(n_chunks):
        gw += gw_part[ci]
    return gw, gx

"""Unified LUT-GEMM execution core: one forward/backward, two backends.

Before this module existed the repo had *two* forward implementations --
the autograd tape path inside :class:`repro.core.lutgemm.LutGemm` and a
separate C-kernel branch that only forward-only (serving) engines could
take -- and the retraining backward was numpy-only.  Everything now
funnels through here:

* :func:`product_sums` / :func:`backward_grads` are the single
  execution points for the LUT gather-accumulate math.  The tape
  (``LutGemm.product_sums`` / ``backward_grads``) and the compiled
  serving plan (whose ops call the same engine methods) both lower onto
  them, so there is exactly one implementation to keep correct.

* Each call picks a **backend**: the fused C kernels from
  :mod:`repro.core.lutkernel` when available and the problem is big
  enough (``FUSED_MIN_ELEMS``), else the chunked numpy loops (moved
  here verbatim from ``LutGemm``).  The two are interchangeable --
  bit-identical outputs -- so the choice is purely a speed decision.

* The C *forward* is integer arithmetic and exact by construction.  The
  C *backward* re-implements numpy's float32 reduction orders; that
  claim is platform-sensitive (numpy may change its pairwise blocking),
  so before the first use this module runs a deterministic
  **self-check** comparing the C backward against the numpy reference
  on probe shapes covering every pairwise-summation regime.  On any
  mismatch it warns once and pins the backward to numpy for the
  process -- correctness never depends on the C path being right.

Env vars (all honored per call): ``REPRO_NO_CCKERNEL=1`` disables both
C kernels, ``REPRO_LUTKERNEL_THREADS=N`` threads them.  Use
:func:`reset_backend_state` (tests, CLI flags) to forget the compiled
kernel and the self-check verdict together.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np

from repro.core import lutkernel
from repro.obs.trace import get_tracer

_TRACE = get_tracer()

#: Minimum ``M * K * C`` before the fused C kernel beats the numpy path
#: (below this the ctypes call overhead dominates; measured crossover).
FUSED_MIN_ELEMS = 24_576

_check_lock = threading.Lock()
#: Self-check verdict: None = not run yet, True = C backward trusted,
#: False = failed, numpy pinned for this process.
_bwd_verdict: bool | None = None
#: Same for the fused serving kernel (gather + requant + clamp): its
#: rounding-right-shift port is convention-sensitive (arithmetic >> on
#: signed values), so it earns trust through its own probe set.
_srv_verdict: bool | None = None


# ----------------------------------------------------------------------
# Forward
def product_sums(
    engine, wq: np.ndarray, xq: np.ndarray, acc_dtype, record_backward: bool
) -> np.ndarray:
    """``out[m, c] = sum_k lut[wq[m,k], xq[k,c]]`` on the best backend.

    ``record_backward=False`` (eval under ``no_grad``, forward-only
    engines) skips the operand snapshot that lets a following backward
    reuse the forward's scratch index tensor.
    """
    m, k = wq.shape
    c = xq.shape[1]
    if engine._lut_i32 is not None and m * k * c >= FUSED_MIN_ELEMS:
        out = _c_forward(engine, wq, xq, acc_dtype)
        if out is not None:
            # The C kernel never touches the numpy scratch buffers, so a
            # previously recorded forward-operand snapshot still describes
            # the scratch index tensor; leave it alone either way.
            return out
    return _numpy_forward(engine, wq, xq, acc_dtype, record_backward)


def _c_forward(engine, wq, xq, acc_dtype) -> np.ndarray | None:
    wrow = (wq * engine.levels).astype(np.int64)
    xq32 = np.ascontiguousarray(xq, dtype=np.int32)
    # Positional call through the module attribute: tests monkeypatch
    # ``lutkernel.fused_product_sums`` to force the numpy fallback.  Same
    # span name as the numpy gather loop: profiles show where forward time
    # goes regardless of which backend served the call (the inner
    # ``lutkernel.product_sums`` span tells them apart).
    with _TRACE.span("lutgemm.gather", cat="engine"):
        out = lutkernel.fused_product_sums(
            engine._lut_i32, wrow, xq32, acc_dtype
        )
    if out is not None:
        engine.ckernel_forward_calls += 1
        _TRACE.count("lutgemm.forward.cckernel")
    return out


def _numpy_forward(
    engine, wq, xq, acc_dtype, record_backward: bool
) -> np.ndarray:
    _TRACE.count("lutgemm.forward.numpy")
    m, k = wq.shape
    c = xq.shape[1]
    chunk = engine.chunk
    wrow = (wq * engine.levels).astype(np.intp)
    out = np.empty((m, c), dtype=acc_dtype)
    lut_flat = engine.lut_flat
    lut_dtype = lut_flat.dtype
    scratch = engine._scratch
    for c0 in range(0, c, chunk):
        hi = min(c0 + chunk, c)
        with _TRACE.span("lutgemm.gather", cat="engine"):
            idx = engine._build_idx(wrow, xq[:, c0:hi], (m, k, hi - c0))
            prod = scratch.get("lut", lut_dtype, (m, k, hi - c0))
            np.take(lut_flat, idx, out=prod, mode="clip")
        with _TRACE.span("lutgemm.accumulate", cat="engine"):
            out[:, c0:hi] = prod.sum(axis=1, dtype=np.int64)
    # The index tensor of a single-chunk GEMM stays valid in scratch;
    # remember the operands so the backward can reuse it.  When no
    # backward will run we still must *invalidate* any older snapshot --
    # the loop above just overwrote the scratch it described -- we only
    # get to skip the operand copies.
    if not engine.forward_only:
        if record_backward:
            engine._fwd_operands = (
                (wq.copy(), xq.copy()) if c <= chunk else None
            )
        else:
            engine._fwd_operands = None
    return out


# ----------------------------------------------------------------------
# Backward (gradient-LUT gather + reduce; zero-point cross terms are
# applied in closed form by the engine, identically for both backends).
def backward_grads(
    engine, wq: np.ndarray, xq: np.ndarray, gout: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 9 inner sums ``(gw, gx)`` on the best backend.

    ``gout`` must already be float32 C-contiguous (the engine
    normalizes it once, before the zero-point math that shares it).
    """
    m, k = wq.shape
    c = xq.shape[1]
    if m * k * c >= FUSED_MIN_ELEMS and backward_kernel_trusted():
        res = _c_backward(engine, wq, xq, gout)
        if res is not None:
            return res
    return _numpy_backward(engine, wq, xq, gout)


def _c_backward(engine, wq, xq, gout):
    wrow = (wq * engine.levels).astype(np.int64)
    xq32 = np.ascontiguousarray(xq, dtype=np.int32)
    res = lutkernel.fused_backward_grads(
        engine.grad_w_flat, engine.grad_x_flat, wrow, xq32, gout,
        engine.chunk,
    )
    if res is not None:
        engine.ckernel_backward_calls += 1
        _TRACE.count("lutgemm.backward.cckernel")
    return res


def _numpy_backward(engine, wq, xq, gout):
    m, k = wq.shape
    c = xq.shape[1]
    chunk = engine.chunk
    scratch = engine._scratch
    wrow = (wq * engine.levels).astype(np.intp)
    gw = np.zeros((m, k), dtype=np.float64)
    gx = np.empty((k, c), dtype=np.float64)
    reuse = (
        c <= chunk
        and engine._fwd_operands is not None
        and engine._fwd_operands[0].shape == wq.shape
        and engine._fwd_operands[1].shape == xq.shape
        and np.array_equal(engine._fwd_operands[0], wq)
        and np.array_equal(engine._fwd_operands[1], xq)
    )
    if not reuse:
        # The loop below overwrites the scratch index tensor, so any
        # cached forward operands stop describing its contents.
        engine._fwd_operands = None
    grad_w_flat = engine.grad_w_flat
    grad_x_flat = engine.grad_x_flat
    for c0 in range(0, c, chunk):
        hi = min(c0 + chunk, c)
        cc = hi - c0
        with _TRACE.span("lutgemm.bwd.gather", cat="engine"):
            if reuse:
                idx = scratch.get("idx", np.intp, (m, k, cc))
                engine.idx_reuses += 1
            else:
                idx = engine._build_idx(wrow, xq[:, c0:hi], (m, k, cc))
            g = gout[:, None, c0:hi]  # (M, 1, Cc), broadcast over K
            # Gather + broadcast-multiply beats einsum here (~1.7x,
            # measured): the contraction dims are small and memory-bound.
            buf = scratch.get("grad", np.float32, (m, k, cc))
            np.take(grad_w_flat, idx, out=buf, mode="clip")
        with _TRACE.span("lutgemm.bwd.accumulate", cat="engine"):
            np.multiply(buf, g, out=buf)
            gw += buf.sum(axis=2)
        with _TRACE.span("lutgemm.bwd.gather", cat="engine"):
            np.take(grad_x_flat, idx, out=buf, mode="clip")
        with _TRACE.span("lutgemm.bwd.accumulate", cat="engine"):
            np.multiply(buf, g, out=buf)
            gx[:, c0:hi] = buf.sum(axis=0)
    return gw, gx


# ----------------------------------------------------------------------
# Fused integer serving op (compiled ``fused_int`` plan ops lower here).
def serve_fused(
    engine,
    wq: np.ndarray,
    wrow: np.ndarray,
    xq: np.ndarray,
    zw: np.ndarray,
    m0: np.ndarray,
    d0: np.ndarray,
    shift: np.ndarray,
    qlo: int,
    qhi: int,
    acc_dtype,
    wrow_bounds: tuple[int, int] | None = None,
    xq_bounds: tuple[int, int] | None = None,
    colsum: np.ndarray | None = None,
) -> np.ndarray:
    """One fused serving step ``(K, C) -> (M, C) uint8`` on the best backend.

    Computes, in pure integers, the whole post-gather pipeline of one
    integer-plan layer::

        A = sum_k lut[wrow + xq] - zw * colsum          # gather_int
        q = clip((A * m0 + d0 + half) >> shift, qlo, qhi)

    with the :func:`repro.nn.requant.rounding_right_shift` round-half-up
    convention.  The C backend keeps the accumulator row in cache for
    the entire pipeline; the numpy fallback runs the same math as the
    unfused ``lutgemm_int -> requant -> relu`` ops, so both backends are
    bit-identical (the C side additionally proves it on this platform
    via :func:`serve_kernel_trusted` before first use).

    ``m0``/``d0``/``shift`` are read per call -- they may be shm-backed
    :class:`~repro.nn.requant.RequantParams` views, consumed in place.
    ``colsum`` may be precomputed (the C im2col fuses it into its
    unfold pass); when ``None`` it is reduced here.
    """
    if colsum is None:
        colsum = xq.sum(axis=0, dtype=np.int64)
    if engine._lut_i32 is not None and serve_kernel_trusted():
        with _TRACE.span("lutgemm.gather", cat="engine"):
            out = lutkernel.fused_serve(
                engine._lut_i32, wrow, xq, colsum, zw, m0, d0, shift,
                qlo, qhi, acc_dtype, wrow_bounds=wrow_bounds,
                xq_bounds=xq_bounds,
            )
        if out is not None:
            engine.ckernel_forward_calls += 1
            _TRACE.count("lutgemm.forward.cckernel")
            return out
    return _numpy_serve(
        engine, wq, xq, colsum, zw, m0, d0, shift, qlo, qhi, acc_dtype
    )


def _numpy_serve(
    engine, wq, xq, colsum, zw, m0, d0, shift, qlo, qhi, acc_dtype
) -> np.ndarray:
    """The unfused pipeline, restated over the fused op's constants.

    Operation-for-operation the integer math of ``FrozenAffine.gather_int``
    followed by :func:`repro.nn.requant.requantize` (channel axis 0) and
    the integer ReLU clamp -- all exact int64, so fused and unfused plans
    agree bitwise on every platform.
    """
    from repro.nn.requant import rounding_right_shift

    acc = engine.product_sums(
        wq, xq, acc_dtype=acc_dtype, record_backward=False
    )
    with _TRACE.span("serve.requant", cat="serve"):
        a = acc.astype(np.int64, copy=False) - zw.reshape(-1, 1) * colsum
        t = a * m0.reshape(-1, 1) + d0.reshape(-1, 1)
        q = rounding_right_shift(t, shift.reshape(-1, 1))
        np.clip(q, qlo, qhi, out=q)
        return q.astype(np.uint8)


# ----------------------------------------------------------------------
# Backward self-check: is the C backward bit-identical to numpy *here*?
def backward_kernel_trusted() -> bool:
    """Whether the fused C backward may be used on this platform.

    Runs the deterministic self-check on first call (when a kernel is
    actually loadable); the verdict is cached for the process.  Kernel
    *unavailability* (no compiler, ``REPRO_NO_CCKERNEL``) is not cached
    as a failure -- flipping the env var back on re-evaluates.
    """
    global _bwd_verdict
    verdict = _bwd_verdict
    if verdict is not None:
        return verdict
    if not lutkernel.kernel_available():
        return False
    with _check_lock:
        if _bwd_verdict is None:
            _bwd_verdict = _run_self_check()
    return _bwd_verdict


def _probe_reference(gw_flat, gx_flat, wrow, xq, gout, chunk):
    """The numpy backward, restated standalone for the self-check."""
    m, k = wrow.shape
    c = xq.shape[1]
    gw = np.zeros((m, k), dtype=np.float64)
    gx = np.empty((k, c), dtype=np.float64)
    for c0 in range(0, c, chunk):
        hi = min(c0 + chunk, c)
        idx = wrow[:, :, None] + xq[None, :, c0:hi]
        g = gout[:, None, c0:hi]
        b = np.empty((m, k, hi - c0), dtype=np.float32)
        np.take(gw_flat, idx, out=b, mode="clip")
        np.multiply(b, g, out=b)
        gw += b.sum(axis=2)
        np.take(gx_flat, idx, out=b, mode="clip")
        np.multiply(b, g, out=b)
        gx[:, c0:hi] = b.sum(axis=0)
    return gw, gx


def _run_self_check() -> bool:
    """Compare C vs numpy backward on shapes covering every sum regime.

    numpy's float32 reductions use pairwise summation with three code
    paths (n < 8 sequential, n <= 128 eight-way unrolled, larger
    recursive splits) plus a different, sequential order for the
    outer-axis reduction; the probe chunk sizes below (200, 64 over 450
    and 70 columns) drive the C kernel through all of them, single- and
    multi-threaded.  The last probe additionally injects out-of-range
    indices (diverged operands), which must clip into the tables the
    way ``np.take(mode="clip")`` does.  Any discrepancy pins the
    backward to numpy with a one-time warning.
    """
    rng = np.random.default_rng(0x5EEDCAFE)
    levels = 4
    gw_flat = rng.standard_normal(levels * levels).astype(np.float32)
    gx_flat = rng.standard_normal(levels * levels).astype(np.float32)
    wq = rng.integers(0, levels, size=(3, 5))
    wrow = (wq * levels).astype(np.intp)
    xq = rng.integers(0, levels, size=(5, 450)).astype(np.intp)
    gout = rng.standard_normal((3, 450)).astype(np.float32)
    for chunk, cols, oob in ((200, 450, False), (64, 70, False),
                             (7, 450, False), (96, 450, True)):
        wrow_p = wrow
        sub_x = np.ascontiguousarray(xq[:, :cols])
        sub_g = np.ascontiguousarray(gout[:, :cols])
        if oob:
            wrow_p = wrow.copy()
            wrow_p[0, 0] = -(1 << 40)
            wrow_p[2, 4] = 1 << 40
            sub_x = sub_x.copy()
            sub_x[1, ::7] = 3000
            sub_x[3, 11] = -77
        want = _probe_reference(gw_flat, gx_flat, wrow_p, sub_x, sub_g,
                                chunk)
        for threads in (1, 2):
            got = lutkernel.fused_backward_grads(
                gw_flat, gx_flat, wrow_p.astype(np.int64),
                sub_x.astype(np.int32), sub_g, chunk, threads=threads,
            )
            if got is None:
                return False
            if not (
                np.array_equal(got[0], want[0])
                and np.array_equal(got[1], want[1])
            ):
                warnings.warn(
                    "repro.core.execcore: the fused C backward is not "
                    "bit-identical to numpy on this platform (numpy's "
                    "float32 reduction order differs from the expected "
                    "pairwise scheme); using the numpy backward. The C "
                    "forward is integer-exact and stays enabled.",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return False
    return True


# ----------------------------------------------------------------------
# Serve self-check: is the fused serving kernel bit-identical here?
def serve_kernel_trusted() -> bool:
    """Whether the fused C serving kernel may be used on this platform.

    The serving kernel's risk is the fixed-point rounding port: C's
    ``>>`` on negative values must be an arithmetic shift matching
    numpy's, and the ``half``/clamp sequence must follow the
    :func:`repro.nn.requant.rounding_right_shift` convention exactly.
    The probe set exercises the corners the requant property tests pin
    -- shift == 0 (no half added), saturation ties at both rails,
    negative ``d0``/``m0`` -- plus per-tensor vs per-channel constant
    strides, both accumulator dtypes, out-of-range gather indices, and
    1/2 threads.  Any mismatch pins serving to the numpy pipeline with a
    one-time warning; kernel *unavailability* is not cached as failure.
    """
    global _srv_verdict
    verdict = _srv_verdict
    if verdict is not None:
        return verdict
    if not lutkernel.kernel_available():
        return False
    with _check_lock:
        if _srv_verdict is None:
            _srv_verdict = _run_serve_self_check()
    return _srv_verdict


def _serve_reference(lut, wrow, xq, zw, m0, d0, shift, qlo, qhi):
    """Pure-Python-int restatement of the fused serving op (no wraparound)."""
    m, k = wrow.shape
    c = xq.shape[1]
    out = np.empty((m, c), dtype=np.uint8)
    colsum = [int(s) for s in xq.sum(axis=0, dtype=np.int64)]
    for i in range(m):
        zwi = int(zw[i if zw.size > 1 else 0])
        mi = int(m0[i if m0.size > 1 else 0])
        di = int(d0[i if d0.size > 1 else 0])
        sh = int(shift[i if shift.size > 1 else 0])
        half = (1 << (sh - 1)) if sh > 0 else 0
        for j in range(c):
            acc = 0
            for kk in range(k):
                idx = int(wrow[i, kk]) + int(xq[kk, j])
                acc += int(lut[min(max(idx, 0), lut.size - 1)])
            t = (acc - zwi * colsum[j]) * mi + di
            q = (t + half) >> sh
            out[i, j] = min(max(q, qlo), qhi)
    return out


def _run_serve_self_check() -> bool:
    rng = np.random.default_rng(0xF00DF00D)
    levels = 4
    lut = rng.integers(-60, 60, size=levels * levels).astype(np.int32)
    m, k, c = 4, 3, 23
    wq = rng.integers(0, levels, size=(m, k))
    wrow = (wq * levels).astype(np.int64)
    xq = rng.integers(0, levels, size=(k, c)).astype(np.int32)
    xq_oob = xq.copy()
    xq_oob[0, ::5] = 4000
    xq_oob[2, 3] = -99
    # Constant sets covering the requant corners: shift == 0 rows (no
    # half), negative d0 and m0, tiny shifts that force saturation at
    # both rails, per-tensor (size-1) vs per-channel layouts.
    per_chan = (
        np.array([3, -2, 5, 1], dtype=np.int64),          # m0
        np.array([-7, 40, -1000, 0], dtype=np.int64),     # d0
        np.array([0, 1, 4, 0], dtype=np.int64),           # shift
    )
    per_tensor = (
        np.array([-3], dtype=np.int64),
        np.array([5], dtype=np.int64),
        np.array([2], dtype=np.int64),
    )
    zw_pc = np.array([0, 1, 2, 3], dtype=np.int64)
    zw_pt = np.array([2], dtype=np.int64)
    for xqp in (xq, xq_oob):
        colsum = xqp.sum(axis=0, dtype=np.int64)
        for (m0, d0, shift), zw in (
            (per_chan, zw_pt),
            (per_tensor, zw_pc),
            (per_chan, zw_pc),
        ):
            for qlo, qhi in ((0, 255), (30, 31)):
                want = _serve_reference(
                    lut, wrow, xqp, zw, m0, d0, shift, qlo, qhi
                )
                for acc_dtype in (np.int64, np.int32):
                    for threads in (1, 2):
                        got = lutkernel.fused_serve(
                            lut, wrow, xqp, colsum, zw, m0, d0, shift,
                            qlo, qhi, acc_dtype=acc_dtype, threads=threads,
                        )
                        if got is None:
                            return False
                        if not np.array_equal(got, want):
                            warnings.warn(
                                "repro.core.execcore: the fused C serving "
                                "kernel is not bit-identical to the "
                                "integer reference on this platform "
                                "(rounding-shift convention mismatch); "
                                "serving uses the unfused numpy pipeline.",
                                RuntimeWarning,
                                stacklevel=3,
                            )
                            return False
    # The C im2col (unfold + column sums in one pass) feeds the fused
    # ops' gather operand, so it is held to the same standard: exact
    # agreement with the numpy unfold, across strides, pads (including
    # the zero-point border fill), and batches.
    x_img = rng.integers(0, 256, size=(2, 3, 7, 6)).astype(np.uint8)
    for kh, kw, stride, pad, zx in (
        (3, 2, 1, 2, 7),
        (2, 2, 2, 1, 255),
        (3, 3, 1, 0, 0),
    ):
        got = lutkernel.im2col_serve(x_img, kh, kw, stride, pad, zx)
        if got is None:
            return False
        n, cc, h, w = x_img.shape
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (w + 2 * pad - kw) // stride + 1
        xp = np.pad(
            x_img.astype(np.int32),
            ((0, 0), (0, 0), (pad, pad), (pad, pad)),
            constant_values=zx,
        )
        want = np.empty((cc * kh * kw, n * oh * ow), dtype=np.int32)
        row = 0
        for ci in range(cc):
            for i in range(kh):
                for j in range(kw):
                    patch = xp[
                        :, ci,
                        i : i + stride * oh : stride,
                        j : j + stride * ow : stride,
                    ]
                    want[row] = patch.reshape(-1)
                    row += 1
        if not (
            np.array_equal(got[0], want)
            and np.array_equal(got[1], want.sum(axis=0, dtype=np.int64))
        ):
            warnings.warn(
                "repro.core.execcore: the C serving im2col is not "
                "bit-identical to the numpy unfold on this platform; "
                "serving uses the unfused numpy pipeline.",
                RuntimeWarning,
                stacklevel=3,
            )
            return False
    return True


def reset_backend_state() -> None:
    """Forget the compiled kernel *and* the self-check verdicts.

    The one entry point tests and the ``--no-cckernel`` CLI flag should
    use: the next call re-reads ``REPRO_NO_CCKERNEL``, re-attempts the
    build if allowed, and re-runs the backward and serving self-checks.
    """
    global _bwd_verdict, _srv_verdict
    with _check_lock:
        _bwd_verdict = None
        _srv_verdict = None
    lutkernel.reset_kernel_cache()


def backend_info() -> dict:
    """Which backend large GEMMs will take right now, for reports.

    Calls may still run on numpy below ``FUSED_MIN_ELEMS`` elements;
    this reports eligibility, after triggering the one-time compile and
    backward self-check if they have not run yet.
    """
    available = lutkernel.kernel_available()
    return {
        "c_kernel": available,
        "forward_backend": "c" if available else "numpy",
        "backward_backend": (
            "c" if available and backward_kernel_trusted() else "numpy"
        ),
        # Backend the compiled ``fused_int`` serving ops take (gather +
        # requant + clamp in one loop); "numpy" also when the serving
        # self-check refused the kernel on this platform.
        "serve_backend": (
            "c" if available and serve_kernel_trusted() else "numpy"
        ),
        "threads": lutkernel.threads_requested(),
        "fused_min_elems": FUSED_MIN_ELEMS,
    }

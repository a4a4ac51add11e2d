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
  enough (``FUSED_MIN_ELEMS``), else the chunked numpy loops
  :func:`_numpy_forward` / :func:`_numpy_backward`.  Those two take
  tables and operands, not an engine, keep nothing between calls, and
  are the references every C self-check compares against.  The
  backends are interchangeable -- bit-identical outputs -- so the
  choice is purely a speed decision.

* Product-separable LUTs (``LutGemm.separable``) skip the gather: the
  engine's forward and :func:`serve_fused` run one exact float64 BLAS
  matmul over the rank-1 factors instead, whenever operand ranges and
  the ``2**53`` bound prove it equal to the gather.

* The C *forward* is integer arithmetic, so either of its two gather
  bodies -- the scalar loop and the in-register AVX-512 VBMI body that
  :mod:`repro.core.lutkernel` runs when the host and operands qualify --
  is exact.  The VBMI bodies (forward and backward) still split, permute
  and re-pack bytes, so they run only after a one-time byte-edge
  **VBMI self-check** against numpy
  (:func:`repro.core.lutkernel.vbmi_trusted`, which this module triggers
  before its gather spans); a mismatch pins every scalar C loop.
  The C *backward* re-implements numpy's float32 reduction orders; that
  claim is platform-sensitive (numpy may change its pairwise blocking),
  so before the first use this module runs a deterministic
  **self-check** comparing the C backward against the numpy reference
  on probe shapes covering every pairwise-summation regime.  On any
  mismatch it warns once and pins the backward to numpy for the
  process -- correctness never depends on the C path being right.

* :func:`fold_input_grad` folds a conv layer's raw activation gradient
  back onto its input image on the same backend choice: the C fold
  under the backward's verdict (which probes it), else
  :func:`_numpy_fold`, the old ``col2im`` arithmetic.

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


def in_levels(arr: np.ndarray, levels: int) -> bool:
    """Whether every entry of ``arr`` lies in ``[0, levels)``.

    The operand guard of the rank-1 lowering: inside it the matmul over
    the LUT factors equals the gather, outside it the gather's clamped
    flat index does not factor.  Two SIMD reductions, no copy.
    """
    return arr.size == 0 or (
        int(arr.min()) >= 0 and int(arr.max()) < levels
    )


def separable_sums(engine, wa: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """The rank-1 lowering's sums ``wa @ b[xq]``, exact-integer float64 (M, C).

    ``wa`` is ``a[wq]`` over the engine's factors ``(a, b)``; the caller
    has proven the operands in range and the sums below ``2**53``.  The
    columns go in ``engine.chunk`` blocks: one ``8·K·C``-byte gathered
    operand costs more in fresh pages than the matmul itself (measured
    ~2x at K = 144, C = 32768), a reused block does not.
    """
    _TRACE.count("lutgemm.forward.separable")
    b = engine._sep_f64[1]
    c = xq.shape[1]
    acc = np.empty((wa.shape[0], c), dtype=np.float64)
    with _TRACE.span("lutgemm.separable", cat="engine"):
        for c0 in range(0, c, engine.chunk):
            hi = min(c0 + engine.chunk, c)
            acc[:, c0:hi] = wa @ np.take(b, xq[:, c0:hi])
    return acc


# ----------------------------------------------------------------------
# Forward
def product_sums(
    engine,
    wq: np.ndarray,
    xq: np.ndarray,
    acc_dtype,
    xq_bounds: tuple[int, int] | None = None,
) -> np.ndarray:
    """``out[m, c] = sum_k lut[wq[m,k], xq[k,c]]`` on the best backend.

    ``xq_bounds`` is the caller's ``(min, max)`` of ``xq``, if it knows
    them (the C gather then skips its extrema scan of ``xq``).
    """
    m, k = wq.shape
    c = xq.shape[1]
    if engine._lut_i32 is not None and m * k * c >= FUSED_MIN_ELEMS:
        out = _c_forward(engine, wq, xq, acc_dtype, xq_bounds)
        if out is not None:
            return out
    _TRACE.count("lutgemm.forward.numpy")
    with _TRACE.span("lutgemm.gather", cat="engine"):
        return _numpy_forward(
            engine.lut_flat, wq * engine.levels, xq, engine.chunk, acc_dtype
        )


def _c_forward(engine, wq, xq, acc_dtype, xq_bounds) -> np.ndarray | None:
    wrow = (wq * engine.levels).astype(np.int64)
    # Positional call through the module attribute: tests monkeypatch
    # ``lutkernel.fused_product_sums`` to force the numpy fallback.  Same
    # span name as the numpy gather loop: profiles show where forward time
    # goes regardless of which backend served the call (the inner
    # ``lutkernel.product_sums`` span tells them apart).
    planes = _planes(engine)
    with _TRACE.span("lutgemm.gather", cat="engine"):
        out = lutkernel.fused_product_sums(
            engine._lut_i32, wrow, xq, acc_dtype, None, planes, xq_bounds
        )
    if out is not None:
        engine.ckernel_forward_calls += 1
        _TRACE.count("lutgemm.forward.cckernel")
    return out


#: Elements per index / gather buffer of the numpy forward and backward.
_NUMPY_BLOCK = 1 << 18


def _block_buffers(m: int, k: int, cc: int, dtype):
    """Flat index and gather buffers of one numpy call, and its K block.

    Blocks of ``kb`` rows of K keep each ``(M, kb, cc)`` buffer near
    ``_NUMPY_BLOCK`` elements (``kb >= 1``), so a call faults in a few
    MB of fresh pages, not ``M * K * chunk`` elements.  Every sum the
    two numpy paths make runs within one ``(m, k)`` or ``(k, c)`` (the
    integer forward sums are order-free), so the blocking never changes
    a result.
    """
    kb = max(1, min(k, _NUMPY_BLOCK // max(1, m * cc)))
    size = m * kb * cc
    return np.empty(size, dtype=np.intp), np.empty(size, dtype=dtype), kb


def _block_views(idx_buf, val_buf, shape):
    """``shape`` views of the contiguous prefixes of the two buffers."""
    n = shape[0] * shape[1] * shape[2]
    return idx_buf[:n].reshape(shape), val_buf[:n].reshape(shape)


def _numpy_forward(lut_flat, wrow, xq, chunk: int, acc_dtype) -> np.ndarray:
    """The numpy gather: ``out[m, c] = sum_k lut_flat[wrow[m,k] + xq[k,c]]``.

    ``wrow`` holds the flat row offsets ``wq * levels``; an index outside
    the table clips to its ends (``np.take(mode="clip")``), which the C
    gathers reproduce.  Columns go in ``chunk`` blocks and K in blocks
    of :func:`_block_buffers` rows, summed in int64 (order-free) into an
    ``acc_dtype`` (M, C) result.  The reference of every C forward
    self-check.
    """
    m, k = wrow.shape
    c = xq.shape[1]
    wrow = np.asarray(wrow, dtype=np.intp)
    out = np.empty((m, c), dtype=acc_dtype)
    idx_buf, prod_buf, kb = _block_buffers(m, k, min(chunk, c), lut_flat.dtype)
    for c0 in range(0, c, chunk):
        hi = min(c0 + chunk, c)
        acc = np.zeros((m, hi - c0), dtype=np.int64)
        for k0 in range(0, k, kb):
            k1 = min(k0 + kb, k)
            idx, prod = _block_views(idx_buf, prod_buf, (m, k1 - k0, hi - c0))
            np.add(wrow[:, k0:k1, None], xq[None, k0:k1, c0:hi], out=idx)
            np.take(lut_flat, idx, out=prod, mode="clip")
            acc += prod.sum(axis=1, dtype=np.int64)
        out[:, c0:hi] = acc
    return out


# ----------------------------------------------------------------------
# Backward (gradient-LUT gather + reduce; zero-point cross terms are
# applied in closed form by the engine, identically for both backends).
def backward_grads(
    engine,
    wq: np.ndarray,
    xq: np.ndarray,
    gout: np.ndarray,
    xq_bounds: tuple[int, int] | None = None,
    need_gx: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eq. 9 inner sums ``(gw, gx)`` on the best backend.

    ``gout`` must already be float32 C-contiguous (the engine
    normalizes it once, before the zero-point math that shares it).
    ``xq_bounds`` as for :func:`product_sums`.  Returns ``gw`` as
    float64 ``(M, K)`` and ``gx`` as float32 ``(K, C)``, the dtype both
    backends sum it in.  ``need_gx=False`` skips the ``gx`` sum on both
    backends and returns ``(gw, None)``.
    """
    m, k = wq.shape
    c = xq.shape[1]
    if m * k * c >= FUSED_MIN_ELEMS and backward_kernel_trusted():
        res = _c_backward(engine, wq, xq, gout, xq_bounds, need_gx)
        if res is not None:
            return res
    with _TRACE.span("lutgemm.bwd.gather", cat="engine"):
        return _numpy_backward(
            engine.grad_w_flat, engine.grad_x_flat, wq * engine.levels, xq,
            gout, engine.chunk, need_gx,
        )


def _c_backward(engine, wq, xq, gout, xq_bounds, need_gx):
    wrow = (wq * engine.levels).astype(np.int64)
    planes = engine._grad_byte_planes() if lutkernel.vbmi_trusted() else None
    res = lutkernel.fused_backward_grads(
        engine.grad_w_flat, engine.grad_x_flat, wrow, xq, gout,
        engine.chunk, None, planes, xq_bounds, need_gx,
    )
    if res is not None:
        engine.ckernel_backward_calls += 1
        _TRACE.count("lutgemm.backward.cckernel")
    return res


def _numpy_backward(
    gw_flat, gx_flat, wrow, xq, gout, chunk: int, need_gx: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """The numpy difference-LUT backward, the reference of the C backward.

    Per ``chunk`` of columns it gathers both gradient tables at the
    clipped index ``wrow[m,k] + xq[k,c]`` and reduces against ``gout``
    (M, C) float32: ``gw[m,k] = sum_c gout * gw_table`` (float32 pairwise
    chunk sums added into float64) and ``gx[k,c] = sum_m gout *
    gx_table`` (float32, sequential over rows).  Returns ``(gw, gx)``,
    float64 (M, K) and float32 (K, C); ``need_gx=False`` skips the
    second gather and returns ``(gw, None)``.
    """
    m, k = wrow.shape
    c = xq.shape[1]
    wrow = np.asarray(wrow, dtype=np.intp)
    gw = np.zeros((m, k), dtype=np.float64)
    gx = np.empty((k, c), dtype=np.float32) if need_gx else None
    # As in _numpy_forward: per-call buffers, a contiguous prefix a block.
    idx_buf, grad_buf, kb = _block_buffers(m, k, min(chunk, c), np.float32)
    for c0 in range(0, c, chunk):
        hi = min(c0 + chunk, c)
        g = gout[:, None, c0:hi]  # (M, 1, Cc), broadcast over K
        for k0 in range(0, k, kb):
            k1 = min(k0 + kb, k)
            idx, buf = _block_views(idx_buf, grad_buf, (m, k1 - k0, hi - c0))
            np.add(wrow[:, k0:k1, None], xq[None, k0:k1, c0:hi], out=idx)
            # Gather + broadcast-multiply beats einsum here (~1.7x,
            # measured): the contraction dims are small and memory-bound.
            np.take(gw_flat, idx, out=buf, mode="clip")
            np.multiply(buf, g, out=buf)
            gw[:, k0:k1] += buf.sum(axis=2)
            if need_gx:
                np.take(gx_flat, idx, out=buf, mode="clip")
                np.multiply(buf, g, out=buf)
                gx[k0:k1, c0:hi] = buf.sum(axis=0)
    return gw, gx


def fold_input_grad(
    gx: np.ndarray,
    zcol: np.ndarray,
    sx: float,
    mask: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """A conv layer's input gradient from the engine's raw activation gradient.

    ``gx`` is the raw ``(Cin*kh*kw, N*OH*OW)`` output of
    :meth:`repro.core.lutgemm.LutGemm.backward_raw` (float32, or float64
    from the STE fast path), ``zcol`` its float64 zero-point column
    term, ``mask`` the ``(N, Cin, H, W)`` clipped-STE pixel mask.
    Returns ``(N, Cin, H, W)`` float64: each pixel sums
    ``((gx - zcol) / sx) * mask`` over its taps from ``+0.0`` in
    ascending ``(i, j)``, with a float32 ``gx`` widened exactly first.
    The C fold (:func:`repro.core.lutkernel.fold_input_grad`) runs when
    the backward self-check trusts the C backward; otherwise
    :func:`_numpy_fold`, its reference.
    """
    if backward_kernel_trusted():
        out = lutkernel.fold_input_grad(
            gx, zcol, sx, mask, kh, kw, stride, pad
        )
        if out is not None:
            return out
    return _numpy_fold(gx, zcol, sx, mask, kh, kw, stride, pad)


def _numpy_fold(gx, zcol, sx, mask, kh, kw, stride, pad) -> np.ndarray:
    """The fold in numpy: ``col2im``'s loop, read from the ``(K, N*L)`` layout.

    Every operation is one of the float-column pipeline's passes (the
    zero-point subtraction, the ``/ sx``, the mask multiply, the ``+=``
    into a zeroed padded image), so the result is theirs bit for bit.
    The subtraction runs in float64 (``zcol`` is float64), widening a
    float32 ``gx`` exactly.
    """
    n, c, h, w = mask.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    g = gx - zcol[None, :]
    g /= sx
    cols = g.reshape(c, kh, kw, n, oh, ow)
    hp, wp = h + 2 * pad, w + 2 * pad
    out = np.zeros((n, c, hp, wp), dtype=np.float64)
    # Padding taps are cropped below, whatever their mask says.
    maskp = np.pad(mask, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    for i in range(kh):
        for j in range(kw):
            sl = (
                slice(None), slice(None),
                slice(i, i + stride * oh, stride),
                slice(j, j + stride * ow, stride),
            )
            out[sl] += cols[:, i, j].transpose(1, 0, 2, 3) * maskp[sl]
    return out[:, :, pad : pad + h, pad : pad + w]


# ----------------------------------------------------------------------
# Fused integer serving op (compiled ``fused_int`` plan ops lower here).
def serve_fused(
    engine,
    wq: np.ndarray,
    wrow: np.ndarray,
    xq: np.ndarray,
    tail,
    acc_dtype,
    wrow_bounds: tuple[int, int] | None = None,
    xq_bounds: tuple[int, int] | None = None,
    colsum: np.ndarray | None = None,
    resid: np.ndarray | None = None,
) -> np.ndarray:
    """One fused serving step of a LUT layer on the best backend.

    Computes the gather and the whole post-gather pipeline of one
    integer-plan layer, ending in one of two tails
    (:class:`~repro.core.lutkernel.RequantTail` or
    :class:`~repro.core.lutkernel.FloatTail`)::

        A = sum_k lut[wrow + xq] - zw * colsum          # gather_int
        q = clip((A * m0 + d0 + half) >> shift, qlo, qhi)   # requant tail
        y = relu(bn(dequant(A)) + resid)                    # float tail

    The requant tail gives the (M, C) uint8 input of the next LUT layer,
    with the :func:`repro.nn.requant.rounding_right_shift` round-half-up
    convention.  The float tail gives (M, C) float64, running the exact
    dequant and each optional float op (BatchNorm, the residual add of
    the (M, C) ``resid``, ReLU) in the unfused plan's numpy order.  The C backend
    keeps the accumulator row in cache for the entire pipeline; the
    numpy fallback (:func:`_numpy_serve`) runs the unfused ops, so both
    backends are bit-identical (the C side additionally proves it on
    this platform via :func:`serve_kernel_trusted` before first use).

    ``wrow`` is the op's precomputed weight operand.  For the gather it
    is the int64 row offsets ``wq * levels``.  For a product-separable
    LUT whose weights pass :meth:`~repro.core.lutgemm.LutGemm.separable_for`
    it is the float64 ``a[wq]`` instead: the sums are then the exact
    matmul ``wrow @ b[xq]``, followed by the same tail
    (:func:`repro.core.lutkernel.tail_f64`, or :func:`_numpy_tail` on
    numpy).  Activations outside ``[0, levels)`` fall back to the
    gather, which clamps the flat index.

    ``colsum`` may be precomputed (the C im2col computes it with its
    unfold); when ``None`` it is reduced here.
    """
    if colsum is None:
        colsum = xq.sum(axis=0, dtype=np.int64)
    if wrow.dtype == np.float64:
        if _xq_in_levels(xq, engine.levels, xq_bounds):
            return _separable_serve(engine, wrow, xq, colsum, tail, resid)
        wrow = (wq * engine.levels).astype(np.int64)
        wrow_bounds = None
    if engine._lut_i32 is not None and serve_kernel_trusted():
        planes = _planes(engine)
        with _TRACE.span("lutgemm.gather", cat="engine"):
            out = lutkernel.serve_tail(
                engine._lut_i32, wrow, xq, colsum, tail, acc_dtype,
                wrow_bounds=wrow_bounds, xq_bounds=xq_bounds, planes=planes,
                resid=resid,
            )
        if out is not None:
            engine.ckernel_forward_calls += 1
            _TRACE.count("lutgemm.forward.cckernel")
            return out
    return _numpy_serve(engine, wq, xq, colsum, tail, acc_dtype, resid)


def _xq_in_levels(xq, levels: int, xq_bounds) -> bool:
    """Whether every activation lies in ``[0, levels)``.

    A caller's conservative ``xq_bounds`` proves it without a scan when
    the grid is wide enough (8-bit multipliers on uint8 plan data).
    """
    if xq_bounds is not None and xq_bounds[0] >= 0 and xq_bounds[1] < levels:
        return True
    return in_levels(xq, levels)


def _separable_serve(engine, wa, xq, colsum, tail, resid) -> np.ndarray:
    """Rank-1 serving step: exact float64 matmul, then the tail."""
    acc = separable_sums(engine, wa, xq)
    if serve_kernel_trusted():
        requant = isinstance(tail, lutkernel.RequantTail)
        span = "serve.requant" if requant else "serve.dequantize"
        with _TRACE.span(span, cat="serve"):
            out = lutkernel.tail_f64(acc, colsum, tail, resid)
        if out is not None:
            return out
    return _numpy_tail(acc, colsum, tail, resid)


def _numpy_serve(
    engine, wq, xq, colsum, tail, acc_dtype, resid=None
) -> np.ndarray:
    """The unfused pipeline, restated over the fused op's constants.

    The engine's product sums (``FrozenAffine.gather_int``'s), then
    :func:`_numpy_tail`: the reference of both C tails.
    """
    acc = engine.product_sums(
        wq, xq, acc_dtype=acc_dtype, record_backward=False
    )
    return _numpy_tail(acc, colsum, tail, resid)


def _numpy_tail(acc, colsum, tail, resid=None) -> np.ndarray:
    """Either serving tail in numpy: the reference of the C tails.

    ``acc`` is the (M, C) integer accumulator, or the rank-1 lowering's
    float64 matmul, whose entries are integers below ``2**53`` and
    convert exactly.
    """
    if isinstance(tail, lutkernel.RequantTail):
        return _requant_clamp(
            acc, colsum, tail.zw, tail.m0, tail.d0, tail.shift, tail.qlo,
            tail.qhi,
        )
    return _float_tail(acc, colsum, tail, resid)


def _requant_clamp(acc, colsum, zw, m0, d0, shift, qlo, qhi) -> np.ndarray:
    """numpy requant + clamp of an (M, C) exact-integer accumulator to uint8.

    The integer math of ``FrozenAffine.gather_int`` and
    :func:`repro.nn.requant.requantize` (channel axis 0) plus the ReLU
    clamp, in int64.
    """
    from repro.nn.requant import rounding_right_shift

    with _TRACE.span("serve.requant", cat="serve"):
        a = acc.astype(np.int64, copy=False) - zw.reshape(-1, 1) * colsum
        t = a * m0.reshape(-1, 1) + d0.reshape(-1, 1)
        q = rounding_right_shift(t, shift.reshape(-1, 1))
        np.clip(q, qlo, qhi, out=q)
        return q.astype(np.uint8)


def _float_tail(acc, colsum, tail, resid=None) -> np.ndarray:
    """numpy float tail of an (M, C) accumulator to (M, C) float64.

    The unfused plan's ops in its order, each one numpy pass:
    ``FrozenAffine.gather_int``'s ``A = acc - zw * colsum`` (int64), the
    ``dequant`` op (``y = float(A)``, ``-= w_corr``, ``+= const_corr``,
    ``*= scale``, ``+ bias``), the eval BatchNorm ``((y - mean) *
    inv_std) * gamma + beta``, the residual join's ``main + short`` and
    the ReLU ``y * (y > 0)``.  Elementwise, so running them on the
    (M, C) array rather than its image-shaped view changes no bit.
    """
    w_corr, const_corr, scale, bias, mean, inv_std, gamma, beta = (
        tail.consts[:, :, None]
    )
    flags = tail.flags
    a = acc.astype(np.int64, copy=False) - tail.zw.reshape(-1, 1) * colsum
    with _TRACE.span("serve.dequantize", cat="serve"):
        y = a.astype(np.float64)
        y -= w_corr
        y += const_corr
        y *= scale
        if flags & lutkernel.FT_BIAS:
            y = y + bias
    if flags & lutkernel.FT_BN:
        y = ((y - mean) * inv_std) * gamma + beta
    if flags & lutkernel.FT_RESID:
        y = y + resid
    if flags & lutkernel.FT_RELU:
        y = y * (y > 0)
    return y


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


def _run_self_check() -> bool:
    """Compare C vs numpy backward on shapes covering every sum regime.

    numpy's float32 reductions use pairwise summation with three code
    paths (n < 8 sequential, n <= 128 eight-way unrolled, larger
    recursive splits) plus a different, sequential order for the
    outer-axis reduction; the probe chunk sizes below (200, 64 over 450
    and 70 columns) drive the C kernel through all of them, single- and
    multi-threaded.  The last probe additionally puts weight offsets
    past both table ends (diverged weights), whose indices must clip
    into the tables the way ``np.take(mode="clip")`` does.  So both C
    loop bodies are vetted: probes 1-3 pass the in-bounds proof and run
    the unclamped gather, probe 4 fails it and runs the clamp loop
    (traced as ``lutkernel.gather.unclamped`` / ``.clamped``).  An
    activation off the uint8 grid never reaches C (the numpy backward
    runs instead).  The C
    input-gradient fold, which only the C backward's consumers call,
    joins the same verdict (:func:`_fold_probes_match`).  Any
    discrepancy pins the backward and the fold to numpy with a one-time
    warning.
    """
    rng = np.random.default_rng(0x5EEDCAFE)
    levels = 4
    gw_flat = rng.standard_normal(levels * levels).astype(np.float32)
    gx_flat = rng.standard_normal(levels * levels).astype(np.float32)
    wq = rng.integers(0, levels, size=(3, 5))
    wrow = (wq * levels).astype(np.intp)
    xq = rng.integers(0, levels, size=(5, 450)).astype(np.uint8)
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
            wrow_p[1, ::2] = levels * levels - 2
        want = _numpy_backward(gw_flat, gx_flat, wrow_p, sub_x, sub_g, chunk)
        for threads in (1, 2):
            got = lutkernel.fused_backward_grads(
                gw_flat, gx_flat, wrow_p.astype(np.int64), sub_x, sub_g,
                chunk, threads=threads,
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
    if not _fold_probes_match(rng):
        warnings.warn(
            "repro.core.execcore: the C input-gradient fold is not "
            "bit-identical to numpy on this platform; using the numpy "
            "backward and fold. The C forward stays enabled.",
            RuntimeWarning,
            stacklevel=3,
        )
        return False
    return True


def _fold_probes_match(rng) -> bool:
    """The C fold against :func:`_numpy_fold`, bit for bit.

    Geometries cover kernels 1, 2 and 3, strides 1 and 2 (with and
    without ``(h + 2p - k) % s == 0``), pads 0 to 2 and non-square
    images; ``gx`` holds -0.0, denormals and +-inf and ``zcol`` a NaN,
    so the signed-zero, ``inf * 0`` and NaN cases of the mask multiply
    come up; one and two threads.  Each geometry runs a float64 ``gx``
    (the STE fast path's) and a float32 one (the LUT backward's, with a
    float32 denormal), so both instantiations of the C fold are vetted.
    Compared by bit pattern, except that any NaN matches any NaN
    (operand order may pick either payload).
    """
    for kh, kw, stride, pad, h, w in (
        (3, 3, 1, 1, 5, 6), (3, 3, 2, 1, 6, 5), (1, 1, 2, 0, 5, 5),
        (2, 3, 2, 2, 4, 7), (3, 3, 1, 0, 3, 3),
    ):
        n, c = 3, 2
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (w + 2 * pad - kw) // stride + 1
        gx = rng.standard_normal((c * kh * kw, n * oh * ow))
        gx.flat[::7] = -0.0
        gx.flat[1::11] = 5e-324
        gx.flat[2::13] = np.inf
        gx.flat[3::17] = -np.inf
        zcol = rng.standard_normal(n * oh * ow)
        zcol[::5] = 0.0
        zcol[-1] = np.nan
        mask = rng.random((n, c, h, w)) < 0.7
        gx32 = gx.astype(np.float32)
        gx32.flat[1::11] = np.float32(1e-45)
        for g in (gx, gx32):
            with np.errstate(invalid="ignore"):
                want = _numpy_fold(g, zcol, 0.37, mask, kh, kw, stride, pad)
                for threads in (1, 2):
                    got = lutkernel.fold_input_grad(
                        g, zcol, 0.37, mask, kh, kw, stride, pad, threads
                    )
                    if got is None:
                        return False
                    same = got.view(np.uint64) == np.ascontiguousarray(
                        want
                    ).view(np.uint64)
                    if not np.all(same | (np.isnan(got) & np.isnan(want))):
                        return False
    return True


# ----------------------------------------------------------------------
# Serve self-check: is the fused serving kernel bit-identical here?
def serve_kernel_trusted() -> bool:
    """Whether the fused C serving kernel may be used on this platform.

    The serving kernel's risks are the fixed-point rounding port -- C's
    ``>>`` on negative values must be an arithmetic shift matching
    numpy's, and the ``half``/clamp sequence must follow the
    :func:`repro.nn.requant.rounding_right_shift` convention exactly --
    and the float tail's operation order and zero signs.
    The probe set exercises the corners the requant property tests pin
    -- shift == 0 (no half added), saturation ties at both rails,
    negative ``d0``/``m0`` -- plus per-tensor vs per-channel constant
    strides, both accumulator dtypes, weight offsets past both table
    ends (the C clamp loop), and 1/2 threads; the rank-1 lowering's
    :func:`lutkernel.tail_f64` entry is probed on the same constants,
    the float tail against :func:`_float_tail` by bit pattern
    (:func:`_float_tail_probes_match`), and the C unfold
    (:func:`lutkernel.im2col_serve`) on geometries that reach each of
    its row paths.  Any mismatch pins serving to
    the numpy pipeline with a one-time warning; kernel *unavailability*
    is not cached as failure.
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
    xq = rng.integers(0, levels, size=(k, c)).astype(np.uint8)
    colsum = xq.sum(axis=0, dtype=np.int64)
    # Diverged weights: offsets before the table and past its end, near
    # and far, so the clamp loop clips in both directions.
    wrow_oob = wrow.copy()
    wrow_oob[0, ::2] = -5
    wrow_oob[1, 1] = -(1 << 40)
    wrow_oob[2, 0] = lut.size
    wrow_oob[3, 2] = 1 << 40
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
    const_sets = (
        (per_chan, zw_pt),
        (per_tensor, zw_pc),
        (per_chan, zw_pc),
    )
    rails = ((0, 255), (30, 31))
    for wrow_p in (wrow, wrow_oob):
        for (m0, d0, shift), zw in const_sets:
            for qlo, qhi in rails:
                want = _serve_reference(
                    lut, wrow_p, xq, zw, m0, d0, shift, qlo, qhi
                )
                tail = lutkernel.RequantTail(zw, m0, d0, shift, qlo, qhi, m)
                for acc_dtype in (np.int64, np.int32):
                    for threads in (1, 2):
                        got = lutkernel.serve_tail(
                            lut, wrow_p, xq, colsum, tail,
                            acc_dtype=acc_dtype, threads=threads,
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
    # The rank-1 lowering's requant entry, fed the exact float64 matmul
    # over a separable probe LUT, against the same reference.
    a = rng.integers(-9, 10, size=levels)
    b = rng.integers(0, 13, size=levels)
    lut_sep = np.outer(a, b).ravel().astype(np.int32)
    acc = np.take(a.astype(np.float64), wq) @ np.take(b.astype(np.float64), xq)
    for (m0, d0, shift), zw in const_sets:
        for qlo, qhi in rails:
            want = _serve_reference(
                lut_sep, wrow, xq, zw, m0, d0, shift, qlo, qhi
            )
            got = lutkernel.tail_f64(acc, colsum, lutkernel.RequantTail(
                zw, m0, d0, shift, qlo, qhi, m
            ))
            if got is None:
                return False
            if not np.array_equal(got, want):
                warnings.warn(
                    "repro.core.execcore: the C requant of the rank-1 "
                    "serving lowering is not bit-identical to the integer "
                    "reference on this platform; serving uses the unfused "
                    "numpy pipeline.",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return False
    if not _float_tail_probes_match(rng):
        warnings.warn(
            "repro.core.execcore: the C float serving tail is not "
            "bit-identical to the numpy reference on this platform; "
            "serving uses the unfused numpy pipeline.",
            RuntimeWarning,
            stacklevel=3,
        )
        return False
    # The C im2col (the uint8 unfold, then its column sums) feeds every
    # C gather, so it is held to the same standard: exact agreement with
    # the numpy unfold (the numpy branch of approx.im2col_int), operand
    # dtype included, across strides 1 and 2 (each with rows of one and
    # of several vector pieces: the 70-pixel image), kernels 1 to 3, pads
    # (including the zero-point border fill) and batches.
    from repro.nn.functional import im2col

    x_img = rng.integers(0, 256, size=(2, 3, 7, 6)).astype(np.uint8)
    x_wide = rng.integers(0, 256, size=(2, 2, 4, 70)).astype(np.uint8)
    for x, kh, kw, stride, pad, zx in (
        (x_img, 3, 2, 1, 2, 7),
        (x_img, 2, 2, 2, 1, 255),
        (x_img, 3, 3, 1, 0, 0),
        (x_img, 1, 1, 1, 0, 40),
        (x_wide, 3, 3, 1, 1, 9),
        (x_wide, 3, 3, 2, 1, 128),
        (x_wide, 1, 1, 2, 0, 3),
    ):
        got = lutkernel.im2col_serve(x, kh, kw, stride, pad, zx)
        if got is None:
            return False
        cols = im2col(x, kh, kw, stride, pad, pad_value=zx)
        want = cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)
        if not (
            got[0].dtype == np.uint8
            and np.array_equal(got[0], want)
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


def _float_tail_probes_match(rng) -> bool:
    """The C float tail against :func:`_float_tail`, bit for bit.

    150 columns (two VBMI tiles, the second a partial one) over a
    levels-16 uint16 LUT, both gather bodies (planes
    given or not; the VBMI one where the host runs it), int32 and int64
    sums, 1 and 4 threads, and the rank-1 entry
    (:func:`repro.core.lutkernel.tail_f64`) on the same sums.  The
    dequant constants are non-integers of mixed magnitude and sign, so
    any reordering of its four steps changes low bits; ``scale`` and
    ``const_corr`` come per tensor and per channel, with and without
    bias, BatchNorm, residual and ReLU.  A third of the residual cancels
    ``y`` exactly (``+0.0``), ``-0.0`` entries pass ``y`` through, and
    negative ``y`` reach the ReLU (``-0.0`` out), so results are compared
    by bit pattern.
    """
    levels, m, k, c = 16, 5, 7, 150
    lut = rng.integers(0, 0x10000, size=levels * levels).astype(np.int32)
    planes = lutkernel.byte_planes(lut)
    wrow = (rng.integers(0, levels, size=(m, k)) * levels).astype(np.int64)
    xq = rng.integers(0, levels, size=(k, c)).astype(np.uint8)
    colsum = xq.sum(axis=0, dtype=np.int64)
    acc = _numpy_forward(lut, wrow, xq, c, np.int64)
    zw = np.array([3, 0, 1, 7, 2], dtype=np.int64)
    w_corr = rng.standard_normal(m) * 1e5
    bn = tuple(rng.standard_normal((4, m)) * [[50.0], [0.3], [2.0], [1.0]])
    layouts = (
        (rng.standard_normal(1) * 1e-3, rng.standard_normal(1) * 1e-4),
        (rng.standard_normal(m) * 1e-3, rng.standard_normal(m) * 1e-4),
    )
    for const_corr, scale in layouts:
        for with_bias, with_bn, residual, relu in (
            (False, False, False, False), (True, False, False, True),
            (False, True, False, False), (True, True, False, True),
            (False, True, True, True), (True, False, True, False),
        ):
            consts = (zw, w_corr, const_corr, scale,
                      rng.standard_normal(m) if with_bias else None,
                      bn if with_bn else None)
            tail = lutkernel.FloatTail(*consts, residual, relu)
            r = None
            if residual:
                r = -_float_tail(acc, colsum, lutkernel.FloatTail(*consts))
                r.flat[1::3] = rng.standard_normal(r.size // 3)
                r.flat[2::3] = -0.0
            want = _float_tail(acc, colsum, tail, r).view(np.uint64)
            got = [lutkernel.tail_f64(acc.astype(np.float64), colsum, tail,
                                      r)]
            for acc_dtype in (np.int64, np.int32):
                for pl in (planes, None):
                    for threads in (1, 4):
                        got.append(lutkernel.serve_tail(
                            lut, wrow, xq, colsum, tail, acc_dtype, threads,
                            planes=pl, resid=r,
                        ))
            if any(
                g is None or not np.array_equal(g.view(np.uint64), want)
                for g in got
            ):
                return False
    return True


# ----------------------------------------------------------------------
def _planes(engine) -> np.ndarray | None:
    """The engine's byte planes when the VBMI body is trusted, else None.

    Callers evaluate it before entering their gather span, so the body's
    one-time self-check (:func:`repro.core.lutkernel.vbmi_trusted`)
    never adds its time to a traced forward or serving call.
    """
    planes = engine._lut_planes
    return planes if planes is not None and lutkernel.vbmi_trusted() else None


def reset_backend_state() -> None:
    """Forget the compiled kernel *and* the self-check verdicts.

    The one entry point tests and the ``--no-cckernel`` CLI flag should
    use: the next call re-reads ``REPRO_NO_CCKERNEL``, re-attempts the
    build if allowed, and re-runs the backward, serving and VBMI
    self-checks.
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
        # Body of the C gathers, forward and backward: the in-register
        # AVX-512 VBMI bodies on hosts that have VBMI (and pass their
        # self-check), else the scalar loops.
        "gather_isa": "avx512vbmi" if lutkernel.vbmi_trusted() else "scalar",
        "threads": lutkernel.threads_requested(),
        "fused_min_elems": FUSED_MIN_ELEMS,
    }

"""Approximate convolution / linear layers (Fig. 4 of the paper).

Forward (top of Fig. 4): float weights/activations are quantized with
Eq. 7, multiplied through the AppMult's precomputed LUT (the paper does the
same lookups in CUDA kernels), accumulated in integer arithmetic, and
dequantized with Eq. 8 (including the zero-point cross terms).

Backward (bottom of Fig. 4, Eq. 9): the AppMult gradient ``dAM/dW`` /
``dAM/dX`` is looked up from precomputed gradient LUTs
(:mod:`repro.core.gradient`) -- either the paper's difference-based tables
or the STE baseline -- then chained with ``Q'`` (clipped STE) and ``DQ'``:

    dL/dw = s_x * sum_j dL/dy * (gradW(W, X) - Z_x) * 1[w in range]
    dL/dx = s_w * sum_i dL/dy * (gradX(W, X) - Z_w) * 1[x in range]

The ``- Z_x`` / ``- Z_w`` terms come from differentiating Eq. 8's cross
terms; with STE tables (gradW = X, gradX = W) the expressions reduce
exactly to ordinary fake-quantized convolution gradients, which is the
correctness anchor used by the tests.

The conv layer works on the image, not on its patch columns: it
quantizes the float image once and unfolds the integers
(:func:`im2col_int`, padded with ``Z_x``), masks ``1[x in range]`` per
pixel, and folds the engine's raw activation gradient straight back onto
the image (:func:`repro.core.execcore.fold_input_grad`).  Every value is
the one quantizing the float columns and folding them with ``col2im``
would give, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core import execcore, lutkernel
from repro.core.gradient import GradientPair, gradient_luts
from repro.core.lutgemm import DEFAULT_CHUNK, LutGemm, get_engine
from repro.errors import QuantizationError
from repro.multipliers.base import Multiplier
from repro.nn import functional as F
from repro.nn.init import conv_fan_in, kaiming_normal
from repro.nn.module import Module, Parameter
from repro.nn.quant import (
    ChannelQuantParams,
    MinMaxObserver,
    QuantParams,
    compute_channel_qparams,
    quantize_array,
    quantize_per_channel,
)
from repro.obs.health import get_monitor
from repro.obs.trace import get_tracer

_TRACE = get_tracer()
_HEALTH = get_monitor()

__all__ = [
    "DEFAULT_CHUNK",
    "LutGemm",  # re-exported from repro.core.lutgemm (historical home)
    "ApproxConv2d",
    "ApproxLinear",
    "FrozenAffine",
    "im2col_int",
]


class _QuantState:
    """Shared calibrate-then-freeze quantization state for approx layers.

    ``per_channel_weights`` switches the weight grid from one (scale, zero
    point) pair per tensor to one per output channel; activations are
    always per-tensor (every row shares the LUT's X operand grid).
    """

    def __init__(self, bits: int, per_channel_weights: bool = False):
        self.bits = bits
        self.per_channel_weights = per_channel_weights
        self.w_observer = MinMaxObserver()
        self.x_observer = MinMaxObserver()
        self.w_qparams: QuantParams | ChannelQuantParams | None = None
        self.x_qparams: QuantParams | None = None

    @property
    def frozen(self) -> bool:
        return self.w_qparams is not None and self.x_qparams is not None

    def freeze(self, wmat: np.ndarray | None = None) -> None:
        if self.per_channel_weights:
            if wmat is None:
                raise QuantizationError(
                    "per-channel freeze needs the weight matrix"
                )
            self.w_qparams = compute_channel_qparams(wmat, self.bits)
        else:
            self.w_qparams = self.w_observer.qparams(self.bits)
        self.x_qparams = self.x_observer.qparams(self.bits)

    def require_frozen(self, layer: str) -> None:
        if not self.frozen:
            raise QuantizationError(
                f"{layer}: quantization not calibrated; run calibration "
                "batches and call freeze() first"
            )


class FrozenAffine:
    """Precomputed tape-free inference state of one approximate layer.

    Snapshots everything the eval-mode forward recomputes on every call --
    the quantized weight matrix, the Eq. 8 zero-point correction terms, and
    the combined dequantization scale -- so a compiled inference plan only
    pays for the input-dependent work (quantize activations, LUT-GEMM,
    activation-sum correction).  :meth:`apply` reproduces the eval-mode
    float operations in the exact same order, so outputs are bit-identical
    to the training-graph forward.

    The snapshot is taken at construction time; recompile (take a new
    ``FrozenAffine``) after any weight or quantization update.
    """

    def __init__(self, layer: "_ApproxBase"):
        qs = layer.quant
        qs.require_frozen(type(layer).__name__)
        wmat = layer._weight_matrix()
        if isinstance(qs.w_qparams, ChannelQuantParams):
            wq = quantize_per_channel(wmat, qs.w_qparams)
            sw_col = qs.w_qparams.scales[:, None]
            zw_col = qs.w_qparams.zero_points.astype(np.float64)[:, None]
        else:
            wq = quantize_array(wmat, qs.w_qparams)
            sw_col = qs.w_qparams.scale
            zw_col = float(qs.w_qparams.zero_point)
        # Always the shared forward-only engine, even when the layer was
        # trained with gradient LUTs: product sums are integer-exact across
        # engines with the same LUT, and a forward-only engine never
        # materializes the gradient tables.  Engines keep no per-call
        # state, so any number of threads may run plans over it at once.
        self.engine = get_engine(
            layer.multiplier, None, chunk=layer.engine.chunk
        )
        self.wq = wq
        self.m, self.k = wq.shape
        self.x_qparams = qs.x_qparams
        zx = qs.x_qparams.zero_point
        self.zw_col = zw_col
        # Exact integer weight zero point(s): (M,) int64 per-channel or a
        # Python int per-tensor.  The integer serving plan corrects the
        # accumulator with these (bit-equal to the float ``zw_col`` terms,
        # which are integer-valued and exact in float64).
        if isinstance(qs.w_qparams, ChannelQuantParams):
            self.zw_int = qs.w_qparams.zero_points.astype(np.int64)
        else:
            self.zw_int = int(qs.w_qparams.zero_point)
        # Input-independent Eq. 8 terms, computed with the same expressions
        # (and therefore the same float rounding) as the eval-mode forward.
        self.w_corr = zx * wq.sum(axis=1, dtype=np.int64)  # (M,)
        self.const_corr = self.k * zw_col * zx
        self.scale = sw_col * qs.x_qparams.scale
        self.bias = None if layer.bias is None else layer.bias.data.copy()

    def apply(self, cols: np.ndarray) -> np.ndarray:
        """Quantize, LUT-multiply, dequantize: ``(N, K, L) -> (N, M, L)``.

        Every float step reproduces :func:`quantize_array` / the eval-mode
        forward value-for-value (same operations, same order); the in-place
        ufuncs only avoid temporaries, they never change the arithmetic.
        """
        n, k, l = cols.shape
        qp = self.x_qparams
        with _TRACE.span("serve.quantize", cat="serve"):
            buf = cols / qp.scale
            buf += qp.zero_point
            np.rint(buf, out=buf)
            np.clip(buf, qp.qmin, qp.qmax, out=buf)
            xq = buf.astype(_activation_dtype(qp, buf))
            xq = xq.transpose(1, 0, 2).reshape(k, n * l)
        with _TRACE.span("serve.gemm", cat="serve"):
            acc = self.engine.product_sums(self.wq, xq).astype(np.float64)
        with _TRACE.span("serve.dequantize", cat="serve"):
            acc -= self.w_corr[:, None]
            acc -= self.zw_col * xq.sum(axis=0, dtype=np.int64)[None, :]
            acc += self.const_corr
            np.multiply(acc, self.scale, out=acc)
            y = acc.reshape(self.m, n, l).transpose(1, 0, 2)
            if self.bias is not None:
                y = y + self.bias.reshape(1, self.m, 1)
        return y

    # ------------------------------------------------------------------
    # Integer serving-plan support (no float anywhere).
    def gather_int(
        self, xq: np.ndarray, acc_dtype=np.int64, colsum=None
    ) -> np.ndarray:
        """Input-dependent Eq. 8 work in pure integers: ``(K, C) -> (M, C)``.

        Returns the corrected accumulator ``A = acc - Z_w * colsum`` as
        int64 -- the LUT-GEMM product sums minus the per-column weight
        zero-point cross term.  The per-output-channel constants
        (``w_corr``, ``const_corr``, bias) are *not* applied here; the
        requantization (or exact-dequant) op folds them, so ``A`` is the
        quantity fixed-point ``M0``/``shift`` rescaling consumes.

        ``acc_dtype`` selects the engine's accumulator output width
        (int32 halves gather write traffic when
        :meth:`repro.core.lutgemm.LutGemm.int32_acc_safe` allows it); the
        returned array is always int64 after correction.  ``colsum`` is
        ``xq``'s (C,) int64 column sums when the caller has them
        (:func:`im2col_int` does).
        """
        acc = self.engine.product_sums(self.wq, xq, acc_dtype=acc_dtype)
        if colsum is None:
            colsum = xq.sum(axis=0, dtype=np.int64)  # (C,)
        if isinstance(self.zw_int, np.ndarray):
            return acc - self.zw_int[:, None] * colsum[None, :]
        return acc - self.zw_int * colsum[None, :]

    def acc_abs_bound(self) -> int:
        """Exact bound on ``|A|`` over all reachable :meth:`gather_int` values.

        ``acc`` is a sum of ``K`` LUT entries, so ``acc`` lies in
        ``[K * lut_min, K * lut_max]``; ``colsum`` lies in
        ``[0, K * qmax]`` and ``Z_w >= 0``.  Computed with Python integers
        (no overflow) at compile time; :func:`repro.nn.requant.derive_requant`
        uses it to pick the largest overflow-safe ``shift``.
        """
        lut = self.engine.lut_flat
        lo, hi = int(lut.min()), int(lut.max())
        zw_max = (
            int(self.zw_int.max())
            if isinstance(self.zw_int, np.ndarray)
            else self.zw_int
        )
        a_lo = self.k * lo - zw_max * self.k * self.x_qparams.qmax
        a_hi = self.k * hi
        return max(abs(a_lo), abs(a_hi), 1)


class _ApproxBase(Module):
    """Common machinery of ApproxConv2d / ApproxLinear."""

    def __init__(
        self,
        multiplier: Multiplier,
        gradients: GradientPair | None,
        gradient_method,
        hws: int | None,
        chunk: int,
        per_channel_weights: bool = False,
    ):
        super().__init__()
        # ``gradient_method`` None/"none" selects forward-only layers for
        # inference serving: no gradient LUTs are computed and the shared
        # engine skips gradient-table materialization entirely.
        if gradients is None and gradient_method not in (None, "none"):
            gradients = gradient_luts(multiplier, gradient_method, hws=hws)
        self.multiplier = multiplier
        self.gradients = gradients
        # Shared per (multiplier, gradient method, chunk): all converted
        # layers of a model run through one engine and one set of flat LUTs.
        self.engine = get_engine(multiplier, gradients, chunk=chunk)
        self.quant = _QuantState(
            multiplier.bits, per_channel_weights=per_channel_weights
        )
        self.calibrating = False

    def _weight_matrix(self) -> np.ndarray:
        return self.weight.data.reshape(self.weight.shape[0], -1)

    def freeze_quantization(self) -> None:
        """Finalize scales/zero-points after calibration batches."""
        self.quant.freeze(self._weight_matrix())
        self.calibrating = False

    def set_gradients(self, gradients: GradientPair) -> None:
        """Swap in different gradient LUTs (e.g. for STE-vs-ours sweeps)."""
        self.gradients = gradients
        self.engine = get_engine(
            self.multiplier, gradients, chunk=self.engine.chunk
        )

    def frozen_affine(self) -> FrozenAffine:
        """Snapshot the frozen-quant fast path for tape-free inference.

        Used by :mod:`repro.serve.plan`; requires frozen quantization.
        """
        return FrozenAffine(self)

    # ------------------------------------------------------------------
    def _x_range(self) -> tuple[float, float]:
        """The float activation range Eq. 7 represents (clipped-STE mask)."""
        qp = self.quant.x_qparams
        return (
            (qp.qmin - qp.zero_point) * qp.scale,
            (qp.qmax - qp.zero_point) * qp.scale,
        )

    def _approx_affine(
        self,
        x: Tensor,
        xq: np.ndarray,  # (K, C) gather operand: uint8 on an 8-bit grid
        colsum: np.ndarray,  # (C,) int64 column sums of xq
        xq_bounds: tuple[int, int] | None,
        weight: Tensor,
        wmat: np.ndarray,  # (M, K) float view of the weight
        bias: Tensor | None,
        float_cols,
        fold_x_grad,
    ) -> Tensor:
        """LUT-multiply, dequantize; wire the Eq. 9 backward.

        The layer has already quantized its input into the gather
        operand ``xq`` (``xq_bounds``: its ``(min, max)`` when known).
        ``float_cols()`` builds the (N, K, L) float columns ``xq`` was
        quantized from; only the saturation probe calls it, and only
        when it samples.  ``fold_x_grad(gx_raw, zcol)`` maps the
        engine's raw (K, C) activation gradient and its zero-point
        column term (:meth:`LutGemm.backward_raw`) to the input's
        gradient; an input that needs none (``x.requires_grad`` false,
        the data batch at the stem) skips the engine's ``gx`` sum and
        the fold.  Returns a Tensor of shape (N, M, L).
        """
        qs = self.quant
        per_channel = isinstance(qs.w_qparams, ChannelQuantParams)
        if per_channel:
            wq = quantize_per_channel(wmat, qs.w_qparams)  # (M, K)
            # Per-row scales/zero-points as (M,)/(M, 1) column vectors.
            sw = qs.w_qparams.scales
            zw = qs.w_qparams.zero_points.astype(np.float64)
            sw_col, zw_col = sw[:, None], zw[:, None]
        else:
            wq = quantize_array(wmat, qs.w_qparams)
            sw = qs.w_qparams.scale
            zw = float(qs.w_qparams.zero_point)
            sw_col, zw_col = sw, zw
        n = x.shape[0]
        k, c = xq.shape
        l = c // n if n else 0
        sx, zx = qs.x_qparams.scale, qs.x_qparams.zero_point
        m = wmat.shape[0]

        with _TRACE.span("approx.gemm", cat="approx"):
            acc = self.engine.product_sums(
                wq, xq, xq_bounds=xq_bounds
            )  # (M, N*L) int64
        with _TRACE.span("approx.dequantize", cat="approx"):
            # Eq. 8 zero-point corrections (accumulated over K terms).
            acc = acc.astype(np.float64)
            acc -= zx * wq.sum(axis=1, dtype=np.int64)[:, None]
            acc -= zw_col * colsum[None, :]
            acc += k * zw_col * zx
            y = (sw_col * sx) * acc  # (M, N*L)
            y = y.reshape(m, n, l).transpose(1, 0, 2)  # (N, M, L)

        # Clipped-STE mask for Q' (Eq. 9): gradient only flows where the
        # float weight fell inside the representable range (the layer
        # masks its activations the same way, on its input).
        w_lo = (qs.w_qparams.qmin - zw_col) * sw_col
        w_hi = (qs.w_qparams.qmax - zw_col) * sw_col
        wmask = (wmat >= w_lo) & (wmat <= w_hi)
        if _HEALTH.enabled:
            # Passive probe: reads the mask/ranges already computed above,
            # touches no engine state, consumes no RNG.
            _HEALTH.observe_saturation(
                self, wmat, wmask, w_lo, w_hi, *self._x_range(), float_cols
            )

        engine = self.engine

        def backward(g):  # g: (N, M, L)
            gmat = (
                g.transpose(1, 0, 2).reshape(m, n * l) * (sw_col * sx)
            )
            with _TRACE.span("approx.gemm_backward", cat="approx"):
                gw_int, gx_raw, zcol = engine.backward_raw(
                    wq, xq, gmat, zw, zx, xq_bounds, x.requires_grad
                )
            if _HEALTH.enabled:
                # Gradient-quality probe on the live operands/upstream
                # gradient, after the real backward.
                _HEALTH.observe_layer_backward(self, engine, wq, xq, gmat, zx)
            # dW/dw = 1/s_w, dX/dx = 1/s_x (STE through round), so the s_w
            # (resp. s_x) factors cancel one of the two scales in DQ'.
            gw = (gw_int / sw_col) * wmask
            gx = fold_x_grad(gx_raw, zcol) if x.requires_grad else None
            gb = g.sum(axis=(0, 2)) if bias is not None else None
            gw = gw.reshape(weight.shape)
            return (gx, gw, gb) if bias is not None else (gx, gw)

        out = y
        if bias is not None:
            out = out + bias.data.reshape(1, m, 1)
        parents = (x, weight) if bias is None else (x, weight, bias)
        return Tensor.make(out, parents, backward)


def _activation_dtype(qp: QuantParams, q: np.ndarray) -> type:
    """uint8 for values quantized on an 8-bit grid, else int32.

    ``q`` holds the clipped (float or integer) quantized values; a NaN
    among them (a diverged activation) keeps int32, where it reads
    INT32_MIN, as :func:`quantize_array` gives it.
    """
    if q.size == 0 or not (0 <= qp.qmin and qp.qmax <= 0xFF):
        return np.int32
    return np.uint8 if 0 <= q.min() and q.max() <= 0xFF else np.int32


def im2col_int(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, zx: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quantized im2col: the gather operand of an approximate conv layer.

    Unfolds a quantized ``(N, C, H, W)`` image into ``(xq, colsum)``:
    the ``(C*kh*kw, N*OH*OW)`` operand the LUT gathers read (the layout
    of ``im2col(x).transpose(1, 0, 2).reshape(K, -1)``), uint8 for a
    uint8 image and int32 otherwise, and its int64 column sums (the
    Eq. 8 weight-zero-point operand).  The border is padded with the
    activation zero point ``zx``: ``Q(0) == Z``, so this equals
    quantizing the float columns.  A uint8 image takes the C unfold
    (:func:`repro.core.lutkernel.im2col_serve`) when the serving
    self-check trusts it; any other image, or no C kernel, takes numpy's
    :func:`repro.nn.functional.im2col`.  Counted as ``approx.im2col.c``
    / ``approx.im2col.numpy``.  Shared by the training forward and the
    serving plan's gather ops.
    """
    if x.dtype == np.uint8 and execcore.serve_kernel_trusted():
        res = lutkernel.im2col_serve(x, kh, kw, stride, pad, zx)
        if res is not None:
            _TRACE.count("approx.im2col.c")
            return res
    _TRACE.count("approx.im2col.numpy")
    cols = F.im2col(x, kh, kw, stride, pad, pad_value=zx)
    xq = np.ascontiguousarray(
        cols.transpose(1, 0, 2).reshape(cols.shape[1], -1),
        dtype=np.uint8 if x.dtype == np.uint8 else np.int32,
    )
    return xq, xq.sum(axis=0, dtype=np.int64)


class ApproxConv2d(_ApproxBase):
    """Conv2d whose multiplications run through an AppMult LUT.

    In ``calibrating`` mode the layer runs a float convolution while its
    observers record weight/activation ranges; call
    :meth:`freeze_quantization` to fix Eq. 7's scales before retraining.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        multiplier: Multiplier,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        gradients: GradientPair | None = None,
        gradient_method="difference",
        hws: int | None = None,
        chunk: int = DEFAULT_CHUNK,
        per_channel_weights: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(
            multiplier, gradients, gradient_method, hws, chunk,
            per_channel_weights=per_channel_weights,
        )
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = conv_fan_in(in_channels, kernel_size, kernel_size)
        self.weight = Parameter(
            kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size),
                fan_in,
                rng,
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.calibrating:
            self.quant.w_observer.update(self.weight.data)
            self.quant.x_observer.update(x.data)
            return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

        self.quant.require_frozen(type(self).__name__)
        n, c, h, w = x.shape
        kh = kw = self.kernel_size
        stride, pad = self.stride, self.padding
        oh, ow = F.conv_output_size(h, w, kh, kw, stride, pad)
        qp = self.quant.x_qparams
        with _TRACE.span("approx.quantize", cat="approx"):
            # Quantize the image, not its columns (kh * kw times as many
            # values), then unfold the integers padded with Z_x.
            ximg = quantize_array(x.data, qp)
            zx = qp.zero_point
            lo, hi = (int(ximg.min()), int(ximg.max())) if ximg.size else (zx, zx)
            if pad:
                lo, hi = min(lo, zx), max(hi, zx)
            # The bounds of xq guard the uint8 narrowing and spare the
            # gathers their operand scans.  A NaN activation quantizes to
            # INT32_MIN: the int32 unfold, and the numpy gathers, which
            # clip the flat index.
            if 0 <= lo and hi <= 0xFF:
                ximg = ximg.astype(np.uint8)
            xq, colsum = im2col_int(ximg, kh, kw, stride, pad, zx)
        x_lo, x_hi = self._x_range()
        xmask = (x.data >= x_lo) & (x.data <= x_hi)  # per pixel
        wmat = self.weight.data.reshape(self.out_channels, -1)

        def float_cols():
            return F.im2col(x.data, kh, kw, stride, pad)

        def fold_x_grad(gx_raw, zcol):
            with _TRACE.span("approx.fold", cat="approx"):
                return execcore.fold_input_grad(
                    gx_raw, zcol, qp.scale, xmask, kh, kw, stride, pad
                )

        out = self._approx_affine(
            x, xq, colsum, (lo, hi), self.weight, wmat, self.bias,
            float_cols, fold_x_grad,
        )
        return out.reshape(n, self.out_channels, oh, ow)


class ApproxLinear(_ApproxBase):
    """Linear layer whose multiplications run through an AppMult LUT."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        multiplier: Multiplier,
        bias: bool = True,
        gradients: GradientPair | None = None,
        gradient_method="difference",
        hws: int | None = None,
        chunk: int = DEFAULT_CHUNK,
        per_channel_weights: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(
            multiplier, gradients, gradient_method, hws, chunk,
            per_channel_weights=per_channel_weights,
        )
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_normal((out_features, in_features), in_features, rng)
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.calibrating:
            self.quant.w_observer.update(self.weight.data)
            self.quant.x_observer.update(x.data)
            return F.linear(x, self.weight, self.bias)

        self.quant.require_frozen(type(self).__name__)
        n = x.shape[0]
        qp = self.quant.x_qparams
        with _TRACE.span("approx.quantize", cat="approx"):
            xq = quantize_array(x.data, qp)
            xq = xq.astype(_activation_dtype(qp, xq), copy=False).T  # (K, N)
            colsum = xq.sum(axis=0, dtype=np.int64)
        x_lo, x_hi = self._x_range()
        xmask = (x.data >= x_lo) & (x.data <= x_hi)  # (N, K)

        def float_cols():
            return x.data.reshape(n, self.in_features, 1)  # (N, K, 1)

        def fold_x_grad(gx_raw, zcol):
            # Out of place, in float64: gx_raw may be float32.
            return ((gx_raw - zcol[None, :]) / qp.scale).T * xmask

        out = self._approx_affine(
            x, xq, colsum, None, self.weight, self.weight.data, self.bias,
            float_cols, fold_x_grad,
        )
        return out.reshape(n, self.out_features)

"""Tests for the LUT-backed approximate layers (Fig. 4, Eq. 9).

The key correctness anchor: with an *exact* multiplier and STE gradient
tables, ApproxConv2d/ApproxLinear must reproduce ordinary fake-quantized
layers exactly, in both directions.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import execcore
from repro.core.gradient import gradient_luts
from repro.errors import QuantizationError
from repro.multipliers import get_multiplier
from repro.multipliers.exact import ExactMultiplier
from repro.nn import ApproxConv2d, ApproxLinear
from repro.nn import functional as F
from repro.nn.approx import LutGemm
from repro.nn.quant import (
    ChannelQuantParams,
    fake_quantize,
    quantize_array,
    quantize_per_channel,
)
from repro.obs.trace import tracing

rng = np.random.default_rng(21)


def _calibrated_conv(mult, method="ste", hws=None, **kw):
    layer = ApproxConv2d(
        3, 4, 3, multiplier=mult, padding=1,
        gradient_method=method, hws=hws, **kw,
    )
    x = rng.normal(size=(2, 3, 6, 6))
    layer.calibrating = True
    layer(Tensor(x))
    layer.freeze_quantization()
    return layer, x


def test_requires_calibration_before_use():
    layer = ApproxConv2d(3, 4, 3, multiplier=ExactMultiplier(6))
    layer.calibrating = False
    with pytest.raises(QuantizationError):
        layer(Tensor(rng.normal(size=(1, 3, 5, 5))))


def test_exact_ste_conv_matches_fakequant_forward_and_backward():
    mult = ExactMultiplier(7)
    layer, x = _calibrated_conv(mult, "ste")
    xt = Tensor(x, requires_grad=True)
    out = layer(xt)

    wq = fake_quantize(layer.weight, layer.quant.w_qparams)
    xq = fake_quantize(Tensor(x, requires_grad=True), layer.quant.x_qparams)
    ref = F.conv2d(xq, wq, layer.bias, 1, 1)
    assert np.allclose(out.data, ref.data, atol=1e-10)

    g = rng.normal(size=out.shape)
    out.backward(g)
    x2 = Tensor(x, requires_grad=True)
    wq2 = fake_quantize(layer.weight, layer.quant.w_qparams)
    xq2 = fake_quantize(x2, layer.quant.x_qparams)
    layer.weight.grad = None
    ref2 = F.conv2d(xq2, wq2, layer.bias, 1, 1)
    ref2.backward(g)
    assert np.allclose(xt.grad, x2.grad, atol=1e-5)
    assert layer.bias.grad is not None


def test_exact_ste_linear_matches_fakequant():
    mult = ExactMultiplier(7)
    layer = ApproxLinear(6, 4, multiplier=mult, gradient_method="ste")
    x = rng.normal(size=(5, 6))
    layer.calibrating = True
    layer(Tensor(x))
    layer.freeze_quantization()

    xt = Tensor(x, requires_grad=True)
    out = layer(xt)
    wq = fake_quantize(layer.weight, layer.quant.w_qparams)
    xq = fake_quantize(Tensor(x), layer.quant.x_qparams)
    ref = F.linear(xq, wq, layer.bias)
    assert np.allclose(out.data, ref.data, atol=1e-10)

    out.sum().backward()
    assert xt.grad.shape == x.shape
    assert layer.weight.grad.shape == layer.weight.shape


def test_gather_path_equals_fast_path_for_ste():
    """Force the generic gather path and compare against the fast path."""
    mult = get_multiplier("mul7u_rm6")
    pair = gradient_luts(mult, "ste")
    engine_fast = LutGemm(mult, pair)
    assert engine_fast.ste_fast_path
    engine_slow = LutGemm(mult, pair)
    engine_slow.ste_fast_path = False

    wq = rng.integers(0, 128, size=(4, 9)).astype(np.int32)
    xq = rng.integers(0, 128, size=(9, 20)).astype(np.int32)
    g = rng.normal(size=(4, 20))
    gw_f, gx_f = engine_fast.backward_grads(wq, xq, g, 3, 5)
    gw_s, gx_s = engine_slow.backward_grads(wq, xq, g, 3, 5)
    assert np.allclose(gw_f, gw_s, atol=1e-3)
    assert np.allclose(gx_f, gx_s, atol=1e-3)


def test_separable_path_equals_lut_path():
    mult = ExactMultiplier(7)
    pair = gradient_luts(mult, "ste")
    fast = LutGemm(mult, pair)
    assert fast.separable is not None
    slow = LutGemm(mult, pair)
    slow.separable = None
    wq = rng.integers(0, 128, size=(3, 7)).astype(np.int32)
    xq = rng.integers(0, 128, size=(7, 11)).astype(np.int32)
    assert np.array_equal(fast.product_sums(wq, xq), slow.product_sums(wq, xq))


def test_chunk_size_does_not_change_results():
    mult = get_multiplier("mul6u_rm4")
    pair = gradient_luts(mult, "difference", hws=2)
    big = LutGemm(mult, pair, chunk=4096)
    small = LutGemm(mult, pair, chunk=3)
    wq = rng.integers(0, 64, size=(4, 9)).astype(np.int32)
    xq = rng.integers(0, 64, size=(9, 17)).astype(np.int32)
    assert np.array_equal(big.product_sums(wq, xq), small.product_sums(wq, xq))
    g = rng.normal(size=(4, 17))
    gw_b, gx_b = big.backward_grads(wq, xq, g, 1, 2)
    gw_s, gx_s = small.backward_grads(wq, xq, g, 1, 2)
    assert np.allclose(gw_b, gw_s, atol=1e-4)
    assert np.allclose(gx_b, gx_s, atol=1e-4)


def test_lut_forward_actually_uses_appmult():
    """With a truncated multiplier the forward differs from the exact one."""
    mult = get_multiplier("mul7u_rm6")
    layer, x = _calibrated_conv(mult, "ste")
    exact_layer, _ = _calibrated_conv(ExactMultiplier(7), "ste")
    exact_layer.weight.data = layer.weight.data.copy()
    exact_layer.quant.w_qparams = layer.quant.w_qparams
    exact_layer.quant.x_qparams = layer.quant.x_qparams
    out_a = layer(Tensor(x))
    out_e = exact_layer(Tensor(x))
    assert not np.allclose(out_a.data, out_e.data)
    # truncation under-approximates: accumulated products can only shrink
    diff = out_a.data - out_e.data
    assert diff.max() <= 1e-9


def test_difference_gradients_differ_from_ste():
    mult = get_multiplier("mul7u_rm6")
    layer, x = _calibrated_conv(mult, "difference", hws=2)
    layer_ste, _ = _calibrated_conv(mult, "ste")
    layer_ste.weight.data = layer.weight.data.copy()
    layer_ste.quant.w_qparams = layer.quant.w_qparams
    layer_ste.quant.x_qparams = layer.quant.x_qparams

    xt1 = Tensor(x, requires_grad=True)
    xt2 = Tensor(x, requires_grad=True)
    out1 = layer(xt1)
    out2 = layer_ste(xt2)
    assert np.allclose(out1.data, out2.data)  # same forward
    g = rng.normal(size=out1.shape)
    out1.backward(g)
    out2.backward(g)
    assert not np.allclose(xt1.grad, xt2.grad)  # different backward


def test_set_gradients_swaps_tables():
    mult = get_multiplier("mul6u_rm4")
    layer, x = _calibrated_conv(mult, "ste")
    assert layer.engine.ste_fast_path
    layer.set_gradients(gradient_luts(mult, "difference", hws=2))
    assert not layer.engine.ste_fast_path
    layer(Tensor(x))  # still works after swap


def test_stride_and_padding_respected():
    mult = ExactMultiplier(6)
    layer = ApproxConv2d(
        2, 3, 3, multiplier=mult, stride=2, padding=1, gradient_method="ste"
    )
    x = rng.normal(size=(1, 2, 8, 8))
    layer.calibrating = True
    layer(Tensor(x))
    layer.freeze_quantization()
    out = layer(Tensor(x))
    assert out.shape == (1, 3, 4, 4)


def test_eq8_zero_point_corrections_exact():
    """Integer accumulation with nonzero zero points still reproduces the
    fake-quant float conv exactly (exercises the cross-term algebra)."""
    mult = ExactMultiplier(6)
    layer = ApproxConv2d(
        2, 2, 3, multiplier=mult, padding=0, bias=False, gradient_method="ste"
    )
    # Weights with strong asymmetry -> nonzero zero point.
    layer.weight.data = rng.uniform(0.2, 1.0, size=layer.weight.shape)
    x = rng.uniform(-2.0, 0.5, size=(1, 2, 5, 5))
    layer.calibrating = True
    layer(Tensor(x))
    layer.freeze_quantization()
    assert layer.quant.x_qparams.zero_point > 0
    out = layer(Tensor(x))
    wq = fake_quantize(layer.weight, layer.quant.w_qparams)
    xq = fake_quantize(Tensor(x), layer.quant.x_qparams)
    ref = F.conv2d(xq, wq, None, 1, 0)
    assert np.allclose(out.data, ref.data, atol=1e-10)


# ---------------------------------------------------------------------------
# Image-native conv vs the float-column pipeline it replaced
# ---------------------------------------------------------------------------
#
# ``_float_column_reference`` is the approximate conv as it used to run:
# im2col of the float image, quantize the columns, gather, and in the
# backward subtract the zero-point term, divide by s_x, mask the columns
# and col2im.  The layer now quantizes the image, unfolds integers and
# folds the input gradient in one pass; every number must stay the same,
# bit for bit (``tobytes``, so signed zeros count).

_PARITY_MULT = get_multiplier("mul8u_2NDH")
_PARITY_GRADS = {
    "difference": gradient_luts(_PARITY_MULT, "difference", hws=2),
    "ste": gradient_luts(_PARITY_MULT, "ste"),
}
#: (kernel, stride, pad, h, w): kernels 1 and 3, strides 1 and 2, pads 0
#: and 1, and shapes where (h + 2p - k) % s != 0 (rows and columns the
#: last window never reaches).
PARITY_GEOMETRIES = [
    (1, 1, 0, 5, 6),
    (1, 2, 0, 7, 6),
    (3, 1, 0, 6, 7),
    (3, 1, 1, 6, 6),
    (3, 2, 1, 7, 7),
    (3, 2, 1, 8, 9),
    (3, 2, 0, 8, 6),
]


def _float_column_reference(layer, x, g):
    """``(y, gx, gw, gb)`` of the old float-column conv pipeline."""
    qs = layer.quant
    kh = kw = layer.kernel_size
    stride, pad = layer.stride, layer.padding
    cols = F.im2col(x, kh, kw, stride, pad)
    wmat = layer.weight.data.reshape(layer.out_channels, -1)
    if isinstance(qs.w_qparams, ChannelQuantParams):
        wq = quantize_per_channel(wmat, qs.w_qparams)
        sw = qs.w_qparams.scales
        zw = qs.w_qparams.zero_points.astype(np.float64)
        sw_col, zw_col = sw[:, None], zw[:, None]
    else:
        wq = quantize_array(wmat, qs.w_qparams)
        sw = qs.w_qparams.scale
        zw = float(qs.w_qparams.zero_point)
        sw_col, zw_col = sw, zw
    n, k, l = cols.shape
    xq = quantize_array(cols, qs.x_qparams).transpose(1, 0, 2).reshape(
        k, n * l
    )
    sx, zx = qs.x_qparams.scale, qs.x_qparams.zero_point
    m = wmat.shape[0]
    acc = layer.engine.product_sums(wq, xq).astype(np.float64)
    acc -= zx * wq.sum(axis=1, dtype=np.int64)[:, None]
    acc -= zw_col * xq.sum(axis=0, dtype=np.int64)[None, :]
    acc += k * zw_col * zx
    y = ((sw_col * sx) * acc).reshape(m, n, l).transpose(1, 0, 2)
    y = y + layer.bias.data.reshape(1, m, 1)
    w_lo = (qs.w_qparams.qmin - zw_col) * sw_col
    w_hi = (qs.w_qparams.qmax - zw_col) * sw_col
    x_lo = (qs.x_qparams.qmin - zx) * sx
    x_hi = (qs.x_qparams.qmax - zx) * sx
    wmask = (wmat >= w_lo) & (wmat <= w_hi)
    xmask = (cols >= x_lo) & (cols <= x_hi)
    gmat = g.transpose(1, 0, 2).reshape(m, n * l) * (sw_col * sx)
    gw_int, gx_int = layer.engine.backward_grads(wq, xq, gmat, zw, zx)
    gw = ((gw_int / sw_col) * wmask).reshape(layer.weight.shape)
    gx_cols = (gx_int / sx).reshape(k, n, l).transpose(1, 0, 2) * xmask
    gx = F.col2im(gx_cols, x.shape, kh, kw, stride, pad)
    return y, gx, gw, g.sum(axis=(0, 2))


def _parity_conv(kernel, stride, pad, method, per_channel, x):
    layer = ApproxConv2d(
        4, 8, kernel, multiplier=_PARITY_MULT, stride=stride, padding=pad,
        gradients=_PARITY_GRADS[method],
        per_channel_weights=per_channel, rng=np.random.default_rng(5),
    )
    layer.bias.data = np.random.default_rng(6).normal(size=8)
    layer.calibrating = True
    layer(Tensor(x))
    layer.freeze_quantization()
    return layer


def _layer_grads(layer, x, g):
    """The approx node's own ``(gx, gw, gb)``, before leaf accumulation
    (which would turn a -0.0 into +0.0), plus the leaf grads."""
    xt = Tensor(x, requires_grad=True)
    layer.weight.grad = layer.bias.grad = None
    out = layer(xt)
    node = out._parents[0]  # out is the (N, M, L) -> NCHW reshape
    raw = node._backward(g)
    out.backward(g.reshape(out.shape))
    return out.data, raw, (xt.grad, layer.weight.grad, layer.bias.grad)


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_parity(layer, x):
    m = layer.out_channels
    oh, ow = F.conv_output_size(
        x.shape[2], x.shape[3], layer.kernel_size, layer.kernel_size,
        layer.stride, layer.padding,
    )
    g = np.random.default_rng(7).normal(size=(x.shape[0], m, oh * ow))
    g[:, :, ::5] = 0.0  # zero upstream gradients: signed-zero products
    y, raw, leaves = _layer_grads(layer, x, g)
    ry, rgx, rgw, rgb = _float_column_reference(layer, x, g)
    assert _same_bits(y, ry.reshape(y.shape))
    gx, gw, gb = raw
    assert _same_bits(gx, rgx)
    assert _same_bits(gw, rgw)
    assert _same_bits(gb, rgb)
    # The leaves start from zeros, exactly as the old pipeline's did.
    for got, want in zip(leaves, (rgx, rgw, rgb)):
        assert _same_bits(got, np.zeros_like(want) + want)


@pytest.fixture(params=["c", "numpy"])
def conv_backend(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setenv("REPRO_NO_CCKERNEL", "1")
    return request.param


@pytest.mark.parametrize("kernel,stride,pad,h,w", PARITY_GEOMETRIES)
@pytest.mark.parametrize("method", ["difference", "ste"])
@pytest.mark.parametrize("per_channel", [False, True])
def test_image_native_conv_matches_float_columns(
    kernel, stride, pad, h, w, method, per_channel, conv_backend
):
    x = np.random.default_rng(h * 10 + w).normal(size=(3, 4, h, w))
    layer = _parity_conv(kernel, stride, pad, method, per_channel, x)
    # Activations exactly on the clipped-STE mask edges, and just past them.
    x_lo, x_hi = layer._x_range()
    x2 = x * 1.3
    x2[0, 0, 0, :3] = (x_lo, x_hi, np.nextafter(x_hi, np.inf))
    x2[1, 2, -1, -2:] = (np.nextafter(x_lo, -np.inf), x_lo)
    _assert_parity(layer, x2)


def test_image_native_conv_takes_the_c_unfold_and_fold(conv_backend):
    """The C leg really runs the C unfold; the numpy leg never does."""
    x = np.random.default_rng(1).normal(size=(3, 4, 8, 8))
    layer = _parity_conv(3, 1, 1, "difference", False, x)
    c_live = conv_backend == "c" and execcore.backend_info()[
        "backward_backend"
    ] == "c"
    with tracing() as tr:
        _layer_grads(layer, x, np.ones((3, 8, 64)))
        counts = tr.counters()
    assert counts.get("approx.im2col.c", 0) == (1 if c_live else 0)
    assert counts.get("approx.im2col.numpy", 0) == (0 if c_live else 1)
    stats = {k[0] for k in tr.stats()}
    assert ("lutkernel.fold_input_grad" in stats) == c_live
    assert "approx.quantize" in stats


def test_image_native_conv_nan_activation(conv_backend):
    """A NaN pixel quantizes to INT32_MIN: the int32 unfold, the clamped
    gathers, and still the old pipeline's numbers."""
    x = np.random.default_rng(2).normal(size=(3, 4, 7, 7))
    layer = _parity_conv(3, 2, 1, "difference", False, x)
    x[1, 3, 2, 4] = np.nan
    with np.errstate(invalid="ignore"), tracing() as tr:
        _assert_parity(layer, x)
        counts = tr.counters()
    assert counts.get("approx.im2col.c", 0) == 0
    assert counts.get("approx.im2col.numpy", 0) >= 1


def test_uncalibrated_conv_raises_before_quantizing(monkeypatch):
    import repro.nn.approx as approx

    def no_quantize(*_a, **_k):
        raise AssertionError("quantized before the calibration check")

    monkeypatch.setattr(approx, "quantize_array", no_quantize)
    layer = ApproxConv2d(3, 4, 3, multiplier=ExactMultiplier(6), padding=1)
    with pytest.raises(QuantizationError):
        layer(Tensor(rng.normal(size=(1, 3, 5, 5))))
    lin = ApproxLinear(5, 2, multiplier=ExactMultiplier(6))
    with pytest.raises(QuantizationError):
        lin(Tensor(rng.normal(size=(2, 5))))


def test_saturation_probe_reads_float_columns_only_when_sampling(
    monkeypatch,
):
    """x_sat / x_drift stay patch-weighted over the float columns, and the
    layer builds those columns only on the probe's sampled calls."""
    from repro.obs import telemetry
    from repro.obs.health import get_monitor
    from repro.obs.telemetry import get_registry

    x = np.random.default_rng(3).normal(size=(2, 4, 6, 6))
    layer = _parity_conv(3, 1, 1, "difference", False, x)
    x_lo, x_hi = layer._x_range()
    x = x * 2.5  # well past the calibrated range
    cols = F.im2col(x, 3, 3, 1, 1)
    xmask = (cols >= x_lo) & (cols <= x_hi)
    span = max(float(x_hi) - float(x_lo), 1e-30)
    want_sat = 1.0 - float(np.mean(xmask))
    want_drift = float(np.mean(
        np.maximum(np.maximum(x_lo - cols, cols - x_hi), 0.0) / span
    ))
    float_unfolds = []
    real_im2col = F.im2col

    def counting_im2col(arr, *a, **k):
        if arr.dtype.kind == "f":
            float_unfolds.append(arr.shape)
        return real_im2col(arr, *a, **k)

    monkeypatch.setattr(F, "im2col", counting_im2col)
    try:
        telemetry.enable(sample_every=2, sample_cols=8)
        for _ in range(3):
            layer(Tensor(x))
        assert len(float_unfolds) == 2  # calls 1 and 3 sample
        rec = get_monitor().flush_epoch(0)
        stats = next(iter(rec["layers"].values()))
        assert stats["x_sat"] == want_sat
        assert stats["x_drift"] == want_drift
    finally:
        telemetry.disable()
        get_monitor().reset()
        get_registry().reset()


def _no_grad_input_layer(kind):
    """A calibrated difference-gradient layer and an input batch, big
    enough (M * K * C >= FUSED_MIN_ELEMS) for the C backward."""
    data = np.random.default_rng(3)
    if kind == "conv":
        x = data.normal(size=(3, 4, 8, 8))
        return _parity_conv(3, 1, 1, "difference", False, x), x
    layer = ApproxLinear(
        64, 16, multiplier=_PARITY_MULT, gradients=_PARITY_GRADS["difference"],
        rng=np.random.default_rng(5),
    )
    x = data.normal(size=(40, 64))
    layer.calibrating = True
    layer(Tensor(x))
    layer.freeze_quantization()
    return layer, x


@pytest.mark.parametrize("kind", ["conv", "linear"])
def test_input_without_grad_skips_the_activation_gradient(
    kind, conv_backend, monkeypatch
):
    """An input that needs no gradient (the data batch) skips the
    engine's gx sum and the fold; the weight and bias gradients keep
    their bits."""
    layer, x = _no_grad_input_layer(kind)
    engine = layer.engine
    real = engine.backward_raw
    seen = []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(engine, "backward_raw", spy)
    c_live = conv_backend == "c" and execcore.backend_info()[
        "backward_backend"
    ] == "c"
    grads = []
    for needs in (True, False):
        xt = Tensor(x, requires_grad=needs)
        layer.weight.grad = layer.bias.grad = None
        with tracing() as tr:
            out = layer(xt)
            out.backward(np.random.default_rng(8).normal(size=out.shape))
            stats = {k[0] for k in tr.stats()}
            counts = tr.counters()
        grads.append((xt.grad, layer.weight.grad, layer.bias.grad))
        assert ("approx.fold" in stats) == (needs and kind == "conv")
        assert counts.get("lutgemm.backward.cckernel", 0) == int(c_live)
    with_x, without_x = grads
    assert with_x[0] is not None and without_x[0] is None
    assert seen[0][1] is not None and seen[1][1:] == (None, None)
    assert _same_bits(with_x[1], without_x[1])
    assert _same_bits(with_x[2], without_x[2])


@pytest.mark.parametrize("method", ["difference", "ste"])
def test_linear_input_gradient_keeps_float64_arithmetic(method, conv_backend):
    """ApproxLinear's input gradient is the float64 ``(gx_raw - zcol) /
    s_x`` times the mask, bit for bit, whatever dtype the engine's raw
    gradient comes in (float32 off the LUT backends): the zero-point
    subtraction must not round into it."""
    layer = ApproxLinear(
        64, 16, multiplier=_PARITY_MULT, gradients=_PARITY_GRADS[method],
        rng=np.random.default_rng(5),
    )
    data = np.random.default_rng(3)
    x = data.normal(size=(40, 64))
    layer.calibrating = True
    layer(Tensor(x))
    layer.freeze_quantization()
    g = data.normal(size=(40, 16, 1))
    g[:, ::3] = 0.0
    out = layer(Tensor(x, requires_grad=True))
    gx = out._parents[0]._backward(g)[0]
    # The arithmetic as a float64 raw gradient took it, in place.
    qs = layer.quant
    sx, zx = qs.x_qparams.scale, qs.x_qparams.zero_point
    sw, zw = qs.w_qparams.scale, float(qs.w_qparams.zero_point)
    wq = quantize_array(layer.weight.data, qs.w_qparams)
    xq = quantize_array(x, qs.x_qparams).T
    gmat = g.transpose(1, 0, 2).reshape(16, 40) * (sw * sx)
    _, gx_raw, zcol = layer.engine.backward_raw(wq, xq, gmat, zw, zx)
    want = np.array(gx_raw, dtype=np.float64)
    want -= zcol[None, :]
    x_lo, x_hi = layer._x_range()
    want = (want / sx).T * ((x >= x_lo) & (x <= x_hi))
    assert gx_raw.dtype == (np.float64 if method == "ste" else np.float32)
    assert _same_bits(gx, want)

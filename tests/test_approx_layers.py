"""Tests for the LUT-backed approximate layers (Fig. 4, Eq. 9).

The key correctness anchor: with an *exact* multiplier and STE gradient
tables, ApproxConv2d/ApproxLinear must reproduce ordinary fake-quantized
layers exactly, in both directions.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.gradient import gradient_luts
from repro.errors import QuantizationError
from repro.multipliers import get_multiplier
from repro.multipliers.exact import ExactMultiplier
from repro.nn import ApproxConv2d, ApproxLinear
from repro.nn import functional as F
from repro.nn.approx import LutGemm
from repro.nn.quant import fake_quantize

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

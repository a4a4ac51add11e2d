"""Tests for the shared LUT-GEMM engine (cache, fused backward, dtypes)."""

import copy

import numpy as np
import pytest

from repro.core.gradient import GradientPair, gradient_luts
from repro.core.lutgemm import (
    DEFAULT_CHUNK,
    LutGemm,
    clear_engine_cache,
    engine_cache_stats,
    format_engine_stats,
    get_engine,
)
from repro.errors import ReproError
from repro.models import LeNet
from repro.multipliers import get_multiplier
from repro.multipliers.exact import ExactMultiplier
from repro.retrain.convert import approx_layers, approximate_model

MULT = get_multiplier("mul6u_rm4")
PAIR = gradient_luts(MULT, "difference", hws=2)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_engine_cache()
    yield
    clear_engine_cache()


def _reference_grads(engine, wq, xq, gout, zw, zx):
    """Straight-line reimplementation of the gradient-LUT math (Eq. 9)."""
    gout = gout.astype(np.float32)
    m, k = wq.shape
    _, c = xq.shape
    idx = wq.astype(np.int64)[:, :, None] * engine.levels + xq[None, :, :]
    gw = np.zeros((m, k), dtype=np.float64)
    gx = np.empty((k, c), dtype=np.float64)
    ch = engine.chunk
    for c0 in range(0, c, ch):
        sl = slice(c0, min(c0 + ch, c))
        g = gout[:, None, sl]
        gw += (g * engine.grad_w_flat[idx[:, :, sl]]).sum(axis=2)
        gx[:, sl] = (g * engine.grad_x_flat[idx[:, :, sl]]).sum(axis=0)
    zw_vec = np.atleast_1d(np.asarray(zw, dtype=np.float64))
    gw -= zx * gout.sum(axis=1, dtype=np.float64)[:, None]
    if zw_vec.size > 1:
        gx -= (zw_vec[:, None] * gout.astype(np.float64)).sum(axis=0)[None, :]
    else:
        gx -= zw_vec[0] * gout.sum(axis=0, dtype=np.float64)[None, :]
    return gw, gx


def _reference_sums(engine, wq, xq):
    idx = wq.astype(np.int64)[:, :, None] * engine.levels + xq[None, :, :]
    return engine.lut_flat[idx].sum(axis=1, dtype=np.int64)


def _operands(m, k, c, bits, seed=0):
    rng = np.random.default_rng(seed)
    n = 1 << bits
    wq = rng.integers(0, n, size=(m, k)).astype(np.int32)
    xq = rng.integers(0, n, size=(k, c)).astype(np.int32)
    gout = rng.normal(size=(m, c)).astype(np.float32)
    return wq, xq, gout


# ----------------------------------------------------------------------
# Engine cache
def test_converted_layers_share_one_engine():
    model = LeNet(num_classes=4, image_size=12)
    converted = approximate_model(model, MULT, gradients=PAIR)
    layers = list(approx_layers(converted))
    assert len(layers) >= 2
    first = layers[0].engine
    assert all(l.engine is first for l in layers[1:])
    stats = engine_cache_stats()
    assert stats.entries == 1
    assert stats.hits >= len(layers) - 1


def test_deepcopied_model_shares_engine():
    model = LeNet(num_classes=4, image_size=12)
    converted = approximate_model(model, MULT, gradients=PAIR)
    clone = copy.deepcopy(converted)
    for a, b in zip(approx_layers(converted), approx_layers(clone)):
        assert a.engine is b.engine
    assert engine_cache_stats().entries == 1


def test_cache_keyed_by_multiplier_method_and_chunk():
    ste = gradient_luts(MULT, "ste")
    base = get_engine(MULT, PAIR)
    assert get_engine(MULT, PAIR) is base
    assert get_engine(MULT, ste) is not base
    assert get_engine(MULT, PAIR, chunk=DEFAULT_CHUNK // 2) is not base
    other = ExactMultiplier(MULT.bits)
    assert get_engine(other, gradient_luts(other, "ste")) is not base
    assert engine_cache_stats().entries == 4


def test_cache_verifies_tables_on_label_collision():
    base = get_engine(MULT, PAIR)
    # Same method label, different tables: must NOT alias the cached engine.
    impostor = GradientPair(
        grad_w=PAIR.grad_w + 1.0, grad_x=PAIR.grad_x, method=PAIR.method
    )
    other = get_engine(MULT, impostor)
    assert other is not base
    assert np.array_equal(
        other.grad_w_flat, impostor.grad_w.astype(np.float32).ravel()
    )


def test_direct_constructor_is_uncached():
    a = LutGemm(MULT, PAIR)
    b = LutGemm(MULT, PAIR)
    assert a is not b
    assert engine_cache_stats().entries == 0


def test_clone_with_multiplier_detaches():
    from repro.analysis.faults import inject_bitflips

    base = get_engine(MULT, PAIR)
    lut_before = base.lut_flat.copy()
    clone = base.clone_with_multiplier(inject_bitflips(MULT, n_flips=8, seed=0))
    assert clone is not base
    assert not np.shares_memory(clone.lut_flat, base.lut_flat)
    assert not np.array_equal(clone.lut_flat, base.lut_flat)
    assert np.array_equal(base.lut_flat, lut_before)
    # The clone must not have displaced the cached engine.
    assert get_engine(MULT, PAIR) is base


def test_format_engine_stats_mentions_engines():
    get_engine(MULT, PAIR)
    text = format_engine_stats()
    assert "1 engine(s)" in text
    assert MULT.name in text


# ----------------------------------------------------------------------
# Fused backward correctness
def test_fused_backward_matches_reference_multi_chunk():
    engine = LutGemm(MULT, PAIR, chunk=16)
    # 3 full chunks plus an uneven tail chunk of 5 columns.
    wq, xq, gout = _operands(4, 9, 53, MULT.bits, seed=1)
    acc = engine.product_sums(wq, xq)
    assert np.array_equal(acc, _reference_sums(engine, wq, xq))
    gw, gx = engine.backward_grads(wq, xq, gout, zw=3, zx=5)
    gw_ref, gx_ref = _reference_grads(engine, wq, xq, gout, 3, 5)
    assert np.array_equal(gw, gw_ref)
    assert np.array_equal(gx, gx_ref)


def test_backward_with_per_channel_zero_points():
    engine = LutGemm(MULT, PAIR, chunk=16)
    wq, xq, gout = _operands(6, 8, 20, MULT.bits, seed=2)
    zw_vec = np.arange(1, 7, dtype=np.float64)
    gw, gx = engine.backward_grads(wq, xq, gout, zw=zw_vec, zx=4)
    gw_ref, gx_ref = _reference_grads(engine, wq, xq, gout, zw_vec, 4)
    assert np.array_equal(gw, gw_ref)
    assert np.array_equal(gx, gx_ref)


def test_interleaved_calls_match_reference():
    # Single-chunk GEMMs: fwd(A), fwd(B), bwd(A), bwd(B) on one engine
    # each match the reference; no call sees another call's buffers.
    engine = LutGemm(MULT, PAIR, chunk=64)
    ops = [_operands(5, 7, 40, MULT.bits, seed=s) for s in (4, 5)]
    for wq, xq, _gout in ops:
        assert np.array_equal(
            engine.product_sums(wq, xq, record_backward=False),
            _reference_sums(engine, wq, xq),
        )
    for wq, xq, gout in ops:
        gw, gx = engine.backward_grads(wq, xq, gout, zw=1, zx=2)
        gw_ref, gx_ref = _reference_grads(engine, wq, xq, gout, 1, 2)
        assert np.array_equal(gw, gw_ref)
        assert np.array_equal(gx, gx_ref)


def test_scratch_survives_alternating_shapes():
    engine = LutGemm(MULT, PAIR, chunk=16)
    for seed, (m, k, c) in enumerate([(4, 9, 33), (2, 20, 7), (8, 3, 50)]):
        wq, xq, gout = _operands(m, k, c, MULT.bits, seed=seed)
        assert np.array_equal(
            engine.product_sums(wq, xq), _reference_sums(engine, wq, xq)
        )
        gw, gx = engine.backward_grads(wq, xq, gout, zw=3, zx=1)
        gw_ref, gx_ref = _reference_grads(engine, wq, xq, gout, 3, 1)
        assert np.array_equal(gw, gw_ref)
        assert np.array_equal(gx, gx_ref)


# ----------------------------------------------------------------------
# Constructor validation
@pytest.mark.parametrize("chunk", [0, -1, -1024])
def test_nonpositive_chunk_rejected(chunk):
    # chunk is the numpy loops' column step: 0 used to crash the first
    # forward, a negative one silently returned the unwritten accumulator.
    with pytest.raises(ReproError, match="chunk"):
        LutGemm(MULT, PAIR, chunk=chunk)
    with pytest.raises(ReproError, match="chunk"):
        get_engine(MULT, None, chunk=chunk)
    assert engine_cache_stats().entries == 0


def test_chunk_one_matches_reference():
    engine = LutGemm(MULT, PAIR, chunk=1)
    wq, xq, gout = _operands(3, 5, 4, MULT.bits, seed=8)
    assert np.array_equal(
        engine.product_sums(wq, xq), _reference_sums(engine, wq, xq)
    )
    gw, gx = engine.backward_grads(wq, xq, gout, zw=1, zx=2)
    gw_ref, gx_ref = _reference_grads(engine, wq, xq, gout, 1, 2)
    assert np.array_equal(gw, gw_ref)
    assert np.array_equal(gx, gx_ref)


# ----------------------------------------------------------------------
# Accumulator dtype selection (integer serving plan)
def test_int32_accumulators_bit_identical_to_int64():
    # A rank-1 LUT (mul8u_1DMU) would take the matmul; 2NDH gathers.
    mult = get_multiplier("mul8u_2NDH")
    engine = LutGemm(mult, gradients=None)
    wq, xq, _ = _operands(6, 40, 17, 8, seed=3)
    acc64 = engine.product_sums(wq, xq)
    assert engine.int32_acc_safe(wq.shape[1])
    acc32 = engine.product_sums(wq, xq, acc_dtype=np.int32)
    assert acc32.dtype == np.int32
    assert acc64.dtype == np.int64
    np.testing.assert_array_equal(acc64, acc32.astype(np.int64))


def test_int32_accumulators_refused_when_overflow_possible():
    from repro.errors import ReproError

    mult = get_multiplier("mul8u_1DMU")
    engine = LutGemm(mult, gradients=None)
    # Find a K just past the safety bound and assert the guard trips
    # instead of silently wrapping.
    lut_max = max(abs(int(engine.lut_flat.min())), abs(int(engine.lut_flat.max())))
    k_bad = (2**31) // lut_max + 1
    assert not engine.int32_acc_safe(k_bad)
    wq = np.zeros((1, k_bad), dtype=np.int32)
    xq = np.zeros((k_bad, 1), dtype=np.int32)
    with pytest.raises(ReproError, match="int32"):
        engine.product_sums(wq, xq, acc_dtype=np.int32)


def test_unsupported_acc_dtype_rejected():
    from repro.errors import ReproError

    mult = get_multiplier("mul8u_1DMU")
    engine = LutGemm(mult, gradients=None)
    wq, xq, _ = _operands(2, 8, 3, 8)
    with pytest.raises(ReproError, match="accumulator dtype"):
        engine.product_sums(wq, xq, acc_dtype=np.float64)


def test_int32_numpy_fallback_matches(monkeypatch):
    import repro.core.lutkernel as lutkernel

    monkeypatch.setattr(lutkernel, "fused_product_sums", lambda *a: None)
    mult = get_multiplier("mul8u_2NDH")  # not separable: reaches the gather
    engine = LutGemm(mult, gradients=None)
    assert engine.separable is None
    wq, xq, _ = _operands(4, 200, 129, 8, seed=5)  # big enough for fused path
    acc64 = engine.product_sums(wq, xq)
    acc32 = engine.product_sums(wq, xq, acc_dtype=np.int32)
    np.testing.assert_array_equal(acc64, acc32.astype(np.int64))


def test_exact_fast_path_respects_acc_dtype():
    engine = LutGemm(ExactMultiplier(8), gradients=None)
    assert engine.separable is not None  # the exact LUT is rank 1
    wq, xq, _ = _operands(3, 16, 5, 8, seed=7)
    acc32 = engine.product_sums(wq, xq, acc_dtype=np.int32)
    assert acc32.dtype == np.int32
    ref = _reference_sums(engine, wq, xq)
    np.testing.assert_array_equal(acc32.astype(np.int64), ref)


# ----------------------------------------------------------------------
# Rank-1 lowering of product-separable LUTs
RANK1 = {"mul8u_1DMU", "mul8u_acc", "mul7u_acc", "mul6u_acc"}


def test_separable_exactly_for_the_rank1_luts():
    from repro.multipliers.registry import TABLE1_NAMES

    for name in TABLE1_NAMES:
        engine = LutGemm(get_multiplier(name), gradients=None)
        lut = engine.lut_flat.reshape(engine.levels, engine.levels)
        assert (engine.separable is not None) == (name in RANK1), name
        assert (np.linalg.matrix_rank(lut.astype(np.float64)) == 1) == (
            name in RANK1
        ), name
        if engine.separable is not None:
            a, b = engine.separable
            assert a.shape == b.shape == (engine.levels,)
            assert np.array_equal(np.outer(a, b), lut)


def _asymmetric_rank1(bits=8, seed=0):
    from repro.multipliers.base import LutMultiplier

    rng = np.random.default_rng(seed)
    a = rng.integers(-300, 301, size=1 << bits)
    b = rng.integers(0, 700, size=1 << bits)
    return LutMultiplier("rank1_asym", bits, np.outer(a, b))


@pytest.mark.parametrize("mult", [get_multiplier("mul8u_1DMU"),
                                  _asymmetric_rank1()])
def test_separable_sums_match_the_gather(mult):
    engine = LutGemm(mult, gradients=None)
    assert engine.separable is not None
    gather = LutGemm(mult, gradients=None)
    gather.separable = None
    wq, xq, _ = _operands(5, 300, 97, 8, seed=2)
    want = _reference_sums(engine, wq, xq)
    for acc_dtype in (np.int64, np.int32):
        got = engine.product_sums(wq, xq, acc_dtype=acc_dtype)
        assert got.dtype == acc_dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            gather.product_sums(wq, xq, acc_dtype=acc_dtype), want
        )


@pytest.mark.parametrize("mult", [ExactMultiplier(8),
                                  get_multiplier("mul8u_1DMU")])
def test_separable_out_of_range_operands_match_the_gather(mult):
    # Diverged operands: the gather clamps the *flat* index like
    # np.take(mode="clip"), which the factorization does not reproduce,
    # so the separable engine must fall back rather than multiply.
    engine = LutGemm(mult, gradients=None)
    assert engine.separable is not None
    gather = LutGemm(mult, gradients=None)
    gather.separable = None
    wq = np.array([[0, 3]], dtype=np.int32)
    xq = np.array([[300], [-2]], dtype=np.int32)
    got = engine.product_sums(wq, xq)
    np.testing.assert_array_equal(got, gather.product_sums(wq, xq))
    if mult.is_exact:
        assert got[0, 0] == 552  # lut[255] + lut[3 * 256 - 2]: clamped
    wq_bad = np.array([[-1, 300]], dtype=np.int32)
    xq_ok = np.array([[7], [9]], dtype=np.int32)
    np.testing.assert_array_equal(
        engine.product_sums(wq_bad, xq_ok), gather.product_sums(wq_bad, xq_ok)
    )


def test_perturbed_rank1_clone_is_refused():
    from repro.multipliers.base import LutMultiplier

    base = get_multiplier("mul8u_1DMU")
    lut = base.lut().astype(np.int64).copy()
    lut[17, 201] += 1
    clone = get_engine(base, None).clone_with_multiplier(
        LutMultiplier("mul8u_1DMU_plus1", 8, lut)
    )
    assert clone.separable is None
    wq, xq, _ = _operands(3, 40, 9, 8, seed=11)
    wq[0, 0], xq[0, :] = 17, 201
    np.testing.assert_array_equal(
        clone.product_sums(wq, xq), _reference_sums(clone, wq, xq)
    )


def test_separable_exact_bound_falls_back_instead_of_rounding():
    from repro.multipliers.base import BehavioralMultiplier

    # lut = outer([1, 46339], [1, 46337]): an odd, int32-safe maximum
    # product, so the 2**53 bound trips at a K that still fits memory and
    # the sum there (odd, above 2**53) has no float64 representation.
    mult = BehavioralMultiplier(
        "rank1_wide", 1,
        lambda w, x: np.where(w == 1, 46339, 1) * np.where(x == 1, 46337, 1),
    )
    engine = LutGemm(mult, gradients=None)
    assert engine.separable is not None
    bound = 46339 * 46337
    k_bad = -(-(2**53) // bound)  # first K with K * bound >= 2**53
    assert engine.separable_exact(k_bad - 1)
    assert not engine.separable_exact(k_bad)
    wq = np.ones((1, k_bad), dtype=np.int32)
    xq = np.ones((k_bad, 1), dtype=np.int32)
    want = k_bad * bound
    assert int(float(want)) != want  # float64 would have rounded it
    assert int(engine.product_sums(wq, xq)[0, 0]) == want

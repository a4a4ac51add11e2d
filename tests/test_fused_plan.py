"""Tests for the fused integer serving pipeline.

Contract under test: ``compile_plan(..., arithmetic="int")`` fuses every
LUT layer into one ``fused_int`` op backed by the single-loop C serving
kernel -- ``lutgemm_int -> requant [-> relu]`` runs into the requant
tail, ``lutgemm_int -> dequant [-> bn] [-> relu | join]`` runs into the
float tail -- and the fused plan stays **bit-identical** to the float
plan and the unfused integer plan -- on the C backend and the numpy
fallback, across thread counts, and for empty micro-batches.
The plan-level checks run once per serving lowering: ``mul8u_1DMU`` has a
rank-1 LUT (one exact float64 matmul per op), ``mul8u_2NDH`` does not
(the C gather kernel and its numpy fallback).  The bit-identity checks
also run over the tiny residual and MobileNet models of ``conftest.py``,
whose block layers compile inline and fuse like any other.
"""

import numpy as np
import pytest

from repro.core import execcore
from repro.data import DataLoader, SyntheticImageDataset
from repro.models import (
    LeNet,
    mobilenet_small,
    resnet18,
    resnet34,
    resnet50,
    vgg11,
    vgg19,
)
from repro.multipliers import get_multiplier
from repro.retrain.convert import approximate_model, calibrate, freeze
from repro.serve.plan import (
    assert_integer_core,
    compile_plan,
    fuse_integer_plan,
    integer_core_report,
)
from tests.gather_bodies import (
    BODY_COLUMNS,
    edge_lut,
    edge_operands,
    force_body,
    runs_vbmi,
)

#: One multiplier per serving lowering: separable, then gather.
MULTS = ("mul8u_1DMU", "mul8u_2NDH")


def _frozen_lenet(mult):
    model = approximate_model(
        LeNet(num_classes=4, image_size=12, seed=11),
        get_multiplier(mult),
        gradient_method="none", hws=2, include_linear=True,
    )
    ds = SyntheticImageDataset(64, 4, 12, seed=11, split="train")
    calibrate(model, DataLoader(ds, batch_size=32), batches=2)
    freeze(model)
    model.eval()
    return model


@pytest.fixture(scope="module")
def lenet_models():
    return {mult: _frozen_lenet(mult) for mult in MULTS}


@pytest.fixture(scope="module")
def lenet_frozen(lenet_models):
    return lenet_models[MULTS[0]]


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(3).standard_normal((6, 3, 12, 12))


@pytest.fixture(scope="module")
def model_cases(lenet_models, batch, block_models, block_batch):
    """``(model, batch)`` for LeNet and every block model."""
    return [(m, batch) for m in lenet_models.values()] + [
        (m, block_batch) for m in block_models.values()
    ]


@pytest.fixture()
def clean_backend():
    """Reset the cached backend verdicts around env-var manipulation."""
    execcore.reset_backend_state()
    yield
    execcore.reset_backend_state()


# ----------------------------------------------------------------------
# fusion pass structure
# ----------------------------------------------------------------------
def test_fusion_is_default_for_int_plans(lenet_models):
    for mult, model in lenet_models.items():
        plan = compile_plan(model, arithmetic="int")
        assert plan.fused_ops == plan.lutgemm_ops > 0
        # Every fused op records what it absorbed: a requant tail is
        # uint8 -> uint8, the last layer's float tail uint8 -> float64.
        fused = [op for op in plan.ops if op.kind == "fused_int"]
        for op in fused:
            assert op.dtype_in == "uint8"
            assert op.meta is not None and len(op.meta["fused"]) >= 2
            assert op.params.separable == (mult == "mul8u_1DMU")
        assert all(
            "+requant" in op.name and op.dtype_out == "uint8"
            for op in fused[:-1]
        )
        assert fused[-1].name.endswith("+dequant")
        assert fused[-1].dtype_out == "float64"
        kinds = [op.kind for op in plan.ops]
        assert {"lutgemm_int", "requant", "dequant"}.isdisjoint(kinds)
        assert_integer_core(plan)


def test_fuse_opt_out_and_explicit_pass(lenet_frozen):
    plan = compile_plan(lenet_frozen, arithmetic="int", fuse=False)
    assert plan.fused_ops == 0
    n = fuse_integer_plan(plan)
    assert n == plan.fused_ops > 0
    # Idempotent: a second pass finds nothing left to fuse.
    assert fuse_integer_plan(plan) == 0


def test_fuse_is_noop_on_float_plan(lenet_frozen, batch):
    plan = compile_plan(lenet_frozen)
    assert fuse_integer_plan(plan) == 0
    assert plan.fused_ops == 0


# ----------------------------------------------------------------------
# bit identity: C backend, numpy fallback, threads
# ----------------------------------------------------------------------
def test_fused_bit_identical_to_float_and_unfused(model_cases):
    for model, x in model_cases:
        yf = compile_plan(model, example_input=x).run(x)
        yu = compile_plan(model, arithmetic="int", fuse=False).run(x)
        yv = compile_plan(model, arithmetic="int").run(x)
        np.testing.assert_array_equal(yf, yu)
        np.testing.assert_array_equal(yu, yv)


def test_separable_plans_match_the_gather_plan(
    lenet_frozen, batch, monkeypatch, clean_backend
):
    from repro.core.lutgemm import LutGemm

    plans = [
        compile_plan(lenet_frozen, arithmetic="int", fuse=fuse)
        for fuse in (True, False)
    ]
    assert all(plan.separable_ops == plan.lutgemm_ops for plan in plans)
    got = [plan.run(batch) for plan in plans]
    # The reference: the same model with the rank-1 lowering refused,
    # so every op gathers through the LUT.
    with monkeypatch.context() as patch:
        patch.setattr(LutGemm, "separable_for", lambda self, wq: False)
        gather = compile_plan(lenet_frozen, arithmetic="int")
        assert gather.separable_ops == 0
        want = gather.run(batch)
        for y in got:
            np.testing.assert_array_equal(y, want)
    monkeypatch.setenv("REPRO_NO_CCKERNEL", "1")
    execcore.reset_backend_state()
    for plan in plans:
        np.testing.assert_array_equal(plan.run(batch), want)


def test_fused_numpy_fallback_bit_identical(
    model_cases, monkeypatch, clean_backend
):
    plans = [compile_plan(m, arithmetic="int") for m, _ in model_cases]
    wants = [plan.run(x) for plan, (_, x) in zip(plans, model_cases)]
    monkeypatch.setenv("REPRO_NO_CCKERNEL", "1")
    execcore.reset_backend_state()
    assert execcore.backend_info()["serve_backend"] == "numpy"
    for plan, (_, x), want in zip(plans, model_cases, wants):
        np.testing.assert_array_equal(plan.run(x), want)


@pytest.mark.parametrize("threads", ["1", "4"])
def test_fused_thread_counts_bit_identical(model_cases, monkeypatch, threads):
    plans = [compile_plan(m, arithmetic="int") for m, _ in model_cases]
    wants = [plan.run(x) for plan, (_, x) in zip(plans, model_cases)]
    monkeypatch.setenv("REPRO_LUTKERNEL_THREADS", threads)
    for plan, (_, x), want in zip(plans, model_cases, wants):
        np.testing.assert_array_equal(plan.run(x), want)


def test_serve_backend_reported(lenet_frozen):
    plan = compile_plan(lenet_frozen, arithmetic="int")
    summary = plan.op_summary()
    assert summary["serve_backend"] in ("c", "numpy")
    assert "fused [" in plan.describe().splitlines()[0]


# ----------------------------------------------------------------------
# degenerate shapes: zero-row micro-batches flow end to end
# ----------------------------------------------------------------------
def test_empty_batch_through_fused_plan(model_cases, monkeypatch, clean_backend):
    plans = [compile_plan(m, arithmetic="int") for m, _ in model_cases]
    empties = [np.empty((0,) + x.shape[1:]) for _, x in model_cases]
    for plan, empty in zip(plans, empties):
        assert plan.run(empty).shape == (0, 4)
    monkeypatch.setenv("REPRO_NO_CCKERNEL", "1")
    execcore.reset_backend_state()
    for plan, empty in zip(plans, empties):
        assert plan.run(empty).shape == (0, 4)


def test_empty_batch_through_unfused_plan(model_cases):
    for model, x in model_cases:
        plan = compile_plan(model, arithmetic="int", fuse=False)
        assert plan.run(np.empty((0,) + x.shape[1:])).shape == (0, 4)


def test_lutkernel_degenerate_ranges():
    from repro.core import lutkernel

    assert lutkernel._row_ranges(0, 4) == []
    assert lutkernel._chunk_ranges(0, 64, 4) == []
    acc = lutkernel.fused_product_sums(
        np.zeros(16, dtype=np.int32),
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((3, 5), dtype=np.int32),
    )
    if acc is not None:  # None only when no C toolchain exists at all
        assert acc.shape == (0, 5)


# ----------------------------------------------------------------------
# the C serving kernel itself, against the pure-int reference
# ----------------------------------------------------------------------
def _serve_constants(per_channel, rng, m=9):
    """``(zw, m0, d0, shift)`` covering the requant corners for M = 9."""
    if per_channel:
        # Rows 0 and 1 saturate at the upper and lower rail; the rest mix
        # signs, shift == 0 (no half added) and interior outputs.
        zw = rng.integers(0, 4, size=m).astype(np.int64)
        m0 = np.array([1, -1, 2, 1, 3, -2, 1, 1, 5], dtype=np.int64)
        d0 = np.array(
            [1 << 20, -(1 << 20), 128 << 6, 128 << 4, -7, 40, 128, 0,
             128 << 8],
            dtype=np.int64,
        )
        shift = np.array([5, 0, 6, 4, 7, 5, 1, 5, 8], dtype=np.int64)
    else:
        zw = np.array([2], dtype=np.int64)
        m0 = np.array([1], dtype=np.int64)
        d0 = np.array([128 << 5], dtype=np.int64)
        shift = np.array([5], dtype=np.int64)
    return zw, m0, d0, shift


@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("threads", [1, 4, 7])
@pytest.mark.parametrize("in_bounds", [True, False])
@pytest.mark.parametrize("c", [1, 23])
@pytest.mark.parametrize("acc_dtype", [np.int64, np.int32])
def test_fused_serve_matches_reference(
    acc_dtype, c, in_bounds, threads, per_channel
):
    """The serving op and its sums (``fused_product_sums``, one gather
    body) against the int references, C == 1 rows included.  Out of
    bounds, weight offsets leave the table at both ends (the C clamp
    loop), and activations off the uint8 grid go through the execution
    core, whose numpy path must give the same reference."""
    from repro.core import lutkernel

    if not lutkernel.kernel_available():
        pytest.skip("C kernel disabled or no compiler")
    rng = np.random.default_rng(0xC0FFEE + c)
    levels = 16
    # M = 9 splits unevenly over 4 and 7 threads; K = 10 leaves a
    # remainder after the C == 1 branch's four accumulator chains.
    m, k = 9, 10
    lut = rng.integers(-500, 500, size=levels * levels).astype(np.int32)
    wq = rng.integers(0, levels, size=(m, k))
    wrow = (wq * levels).astype(np.int64)
    xq = rng.integers(0, levels, size=(k, c)).astype(np.uint8)
    if not in_bounds:
        # Indices past both table ends take the clamping gather.
        wrow[::2, 0] = lut.size + 4000
        wrow[m - 1, k - 1] = -99
    zw, m0, d0, shift = _serve_constants(per_channel, rng)
    qlo, qhi = 3, 250
    colsum = xq.sum(axis=0, dtype=np.int64)
    want = execcore._serve_reference(
        lut, wrow, xq, zw, m0, d0, shift, qlo, qhi
    )
    tail = lutkernel.RequantTail(zw, m0, d0, shift, qlo, qhi, m)
    got = lutkernel.serve_tail(
        lut, wrow, xq, colsum, tail, acc_dtype=acc_dtype, threads=threads,
    )
    assert got.dtype == np.uint8 and got.shape == (m, c)
    assert np.array_equal(got, want)
    idx = np.clip(wrow[:, :, None] + xq[None], 0, lut.size - 1)
    acc = lutkernel.fused_product_sums(lut, wrow, xq, acc_dtype, threads)
    assert acc.dtype == acc_dtype
    assert np.array_equal(acc, lut[idx].sum(axis=1, dtype=np.int64))
    if in_bounds:
        assert ((want > qlo) & (want < qhi)).any()
    else:
        _assert_off_grid_serve_runs_numpy(
            lut, wq, xq, zw, m0, d0, shift, qlo, qhi, acc_dtype, threads
        )
    if per_channel:
        assert (want[0] == qhi).all() and (want[1] == qlo).all()


def _assert_off_grid_serve_runs_numpy(
    lut, wq, xq, zw, m0, d0, shift, qlo, qhi, acc_dtype, threads
):
    """Activations past both ends of the uint8 grid: the C serving op
    declines them, and ``execcore.serve_fused`` serves the int reference
    through the numpy path."""
    from repro.core import lutkernel
    from repro.core.lutgemm import LutGemm
    from repro.multipliers.base import LutMultiplier

    levels = int(np.sqrt(lut.size))
    engine = LutGemm(
        LutMultiplier("ref", levels.bit_length() - 1,
                      lut.reshape(levels, levels)),
        None,
    )
    k, c = xq.shape
    xq = xq.astype(np.int32)
    xq[0, ::2] = 4000
    xq[k - 1, c - 1] = -99
    wrow = (wq * levels).astype(np.int64)
    colsum = xq.sum(axis=0, dtype=np.int64)
    tail = lutkernel.RequantTail(zw, m0, d0, shift, qlo, qhi, wq.shape[0])
    assert lutkernel.serve_tail(
        lut, wrow, xq, colsum, tail, acc_dtype, threads
    ) is None
    want = execcore._serve_reference(
        lut, wrow, xq, zw, m0, d0, shift, qlo, qhi
    )
    got = execcore.serve_fused(engine, wq, wrow, xq, tail, acc_dtype)
    assert np.array_equal(got, want)
    assert engine.ckernel_forward_calls == 0


@pytest.mark.parametrize("body", ["vbmi", "scalar"])
@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("c", BODY_COLUMNS)
@pytest.mark.parametrize("levels", [256, 128, 64])
def test_fused_serve_bodies_bit_identical(
    monkeypatch, levels, c, per_channel, body
):
    """Both gather bodies of the serving kernel on uint16 byte edges.

    Below ``VBMI_MIN_C`` columns both runs take the scalar loop (C == 1
    rows its four-chain reduction).
    """
    from repro.core import lutkernel
    from repro.obs.trace import tracing

    if not lutkernel.kernel_available():
        pytest.skip("C kernel disabled or no compiler")
    force_body(monkeypatch, body)
    lut = edge_lut(levels)
    planes = lutkernel.byte_planes(lut)
    m, k = 9, 12
    wrow, xq = edge_operands(levels, m, k, c, seed=c)
    rng = np.random.default_rng(c)
    zw, m0, d0, shift = _serve_constants(per_channel, rng, m)
    # Sums reach 12 * 0xFFFF: rescale so the corners stay where
    # _serve_constants puts them (interior outputs, saturating rows).
    d0, shift = d0 << 12, shift + 12
    qlo, qhi = 3, 250
    colsum = xq.sum(axis=0, dtype=np.int64)
    acc = lut[wrow[:, :, None] + xq[None]].sum(axis=1, dtype=np.int64)
    want = execcore._requant_clamp(acc, colsum, zw, m0, d0, shift, qlo, qhi)
    if c <= 65:
        assert np.array_equal(
            want,
            execcore._serve_reference(
                lut, wrow, xq, zw, m0, d0, shift, qlo, qhi
            ),
        )
    vbmi = runs_vbmi(body, c)
    tail = lutkernel.RequantTail(zw, m0, d0, shift, qlo, qhi, m)
    for threads in (1, 4, 7):
        for acc_dtype in (np.int64, np.int32):
            with tracing() as tr:
                got = lutkernel.serve_tail(
                    lut, wrow, xq, colsum, tail, acc_dtype, threads,
                    planes=planes,
                )
                counts = tr.counters()
            assert counts.get("lutkernel.gather.vbmi", 0) == int(vbmi)
            assert counts.get("lutkernel.gather.scalar", 0) == int(not vbmi)
            assert np.array_equal(got, want)
    assert ((want > qlo) & (want < qhi)).any()
    if per_channel:
        assert (want[0] == qhi).all() and (want[1] == qlo).all()


@pytest.mark.parametrize("body", ["vbmi", "scalar"])
def test_plans_bit_identical_on_both_bodies(model_cases, monkeypatch, body):
    """Fused and unfused int plans agree with the float plan on each body."""
    from repro.core import lutkernel

    if not lutkernel.kernel_available():
        pytest.skip("C kernel disabled or no compiler")
    force_body(monkeypatch, body)
    for model, x in model_cases:
        want = compile_plan(model).run(x)
        for fuse in (True, False):
            plan = compile_plan(model, arithmetic="int", fuse=fuse)
            np.testing.assert_array_equal(plan.run(x), want)


def _separable_engine(levels=16, seed=0):
    """A forward-only engine over a random rank-1 LUT ``outer(a, b)``."""
    from repro.core.lutgemm import LutGemm
    from repro.multipliers.base import LutMultiplier

    rng = np.random.default_rng(seed)
    a = rng.integers(-20, 21, size=levels)
    b = rng.integers(0, 31, size=levels)
    bits = levels.bit_length() - 1
    engine = LutGemm(LutMultiplier("rank1", bits, np.outer(a, b)), None)
    assert engine.separable is not None
    return engine


@pytest.mark.parametrize("backend", ["c", "numpy"])
@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("c", [1, 23])
def test_separable_serve_matches_reference(
    c, per_channel, backend, monkeypatch
):
    from repro.core import lutkernel

    engine = _separable_engine()
    levels = engine.levels
    rng = np.random.default_rng(0x5EED + c)
    m, k = 9, 10
    wq = rng.integers(0, levels, size=(m, k))
    xq = rng.integers(0, levels, size=(k, c)).astype(np.int32)
    assert engine.separable_for(wq)
    zw, m0, d0, shift = _serve_constants(per_channel, rng)
    qlo, qhi = 3, 250
    want = execcore._serve_reference(
        engine.lut_flat, wq * levels, xq, zw, m0, d0, shift, qlo, qhi
    )

    def no_gather(*args, **kwargs):
        raise AssertionError("separable op reached the gather kernel")

    execcore.serve_kernel_trusted()  # self-check before the patches
    monkeypatch.setattr(lutkernel, "serve_tail", no_gather)
    if backend == "numpy":
        monkeypatch.setattr(lutkernel, "tail_f64", lambda *a: None)
    wa = np.take(engine._sep_f64[0], wq)
    tail = lutkernel.RequantTail(zw, m0, d0, shift, qlo, qhi, m)
    for acc_dtype in (np.int64, np.int32):
        got = execcore.serve_fused(engine, wq, wa, xq, tail, acc_dtype)
        assert got.dtype == np.uint8 and got.shape == (m, c)
        assert np.array_equal(got, want)
    # The float tail (dequant, BN, residual, ReLU) takes the same branch.
    acc = engine.lut_flat[wq[:, :, None] * levels + xq[None]].sum(axis=1)
    colsum = xq.sum(axis=0, dtype=np.int64)
    ftail = lutkernel.FloatTail(
        zw, rng.standard_normal(m), 0.25, rng.standard_normal(m) * 1e-2,
        bn=tuple(rng.standard_normal((4, m))), residual=True, relu=True,
    )
    resid = rng.standard_normal((m, c))
    want_f = execcore._numpy_tail(acc, colsum, ftail, resid)
    got_f = execcore.serve_fused(engine, wq, wa, xq, ftail, np.int64,
                                 resid=resid)
    assert got_f.tobytes() == want_f.tobytes()
    assert ((want > qlo) & (want < qhi)).any()
    if per_channel:
        assert (want[0] == qhi).all() and (want[1] == qlo).all()


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("ow", [1, 63, 64, 65, 130])
def test_im2col_serve_matches_the_numpy_unfold(n, ow):
    """The C unfold against numpy's ``im2col`` over strides 1-3, pads
    0-2, kernels 1/3/5 and zero points 0/128/255: the uint8 operand and
    its column sums.  Output rows of 1-130 pixels are one, exactly one
    and several 64-byte pieces (32-pixel pieces at stride 2)."""
    from repro.core import lutkernel
    from repro.nn.functional import im2col

    if not lutkernel.kernel_available():
        pytest.skip("C kernel disabled or no compiler")
    rng = np.random.default_rng(ow * 10 + n)
    for stride in (1, 2, 3):
        for pad in (0, 1, 2):
            for k in (1, 3, 5):
                w = (ow - 1) * stride + k - 2 * pad
                if w < 1:
                    continue
                # A one-row image leaves most output rows in the border.
                h = 1 if 2 * pad + 1 >= k else k + 2
                x = rng.integers(0, 256, size=(n, 2, h, w), dtype=np.uint8)
                for zx in (0, 128, 255):
                    got, colsum = lutkernel.im2col_serve(
                        x, k, k, stride, pad, zx
                    )
                    cols = im2col(x, k, k, stride, pad, pad_value=zx)
                    want = cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)
                    assert got.dtype == np.uint8
                    assert np.array_equal(got, want), (stride, pad, k, zx)
                    assert np.array_equal(
                        colsum, want.sum(axis=0, dtype=np.int64)
                    )


def test_im2col_int_returns_uint8_for_a_uint8_image():
    """Both unfolds (C and numpy) give the uint8 operand."""
    from repro.nn.approx import im2col_int

    x = np.random.default_rng(0).integers(0, 256, (2, 3, 6, 5), np.uint8)
    xq, colsum = im2col_int(x, 3, 3, 1, 1, 17)
    assert xq.dtype == np.uint8 and xq.shape == (27, 60)
    assert np.array_equal(colsum, xq.sum(axis=0, dtype=np.int64))
    xq32, _ = im2col_int(x.astype(np.int32), 3, 3, 1, 1, 17)
    assert xq32.dtype == np.int32 and np.array_equal(xq32, xq)


def test_serve_self_check_rejects_a_wrong_unfold(monkeypatch):
    """The C unfold is held to numpy's ``functional.im2col``: a border
    tap one off fails the serving self-check."""
    from repro.core import lutkernel

    if not lutkernel.kernel_available():
        pytest.skip("C kernel disabled or no compiler")
    real = lutkernel.im2col_serve

    def off_by_one(x, kh, kw, stride, pad, zx):
        xq, colsum = real(x, kh, kw, stride, pad, zx)
        xq[0, 0] += pad > 0
        return xq, colsum

    assert execcore._run_serve_self_check()
    monkeypatch.setattr(lutkernel, "im2col_serve", off_by_one)
    with pytest.warns(RuntimeWarning, match="im2col"):
        assert not execcore._run_serve_self_check()


def test_separable_serve_out_of_range_takes_the_gather():
    """Activations off the grid leave the rank-1 lowering for the
    gather, which declines them in C and clips like the reference on the
    numpy path.  Weight offsets off both table ends stay in the C gather
    (its clamp loop)."""
    from repro.core import lutkernel

    engine = _separable_engine()
    levels = engine.levels
    rng = np.random.default_rng(4)
    wq = rng.integers(0, levels, size=(9, 10))
    xq = rng.integers(0, levels, size=(10, 23)).astype(np.int32)
    xq[0, ::2] = 4000
    xq[9, 22] = -99
    zw, m0, d0, shift = _serve_constants(True, rng)
    want = execcore._serve_reference(
        engine.lut_flat, wq * levels, xq, zw, m0, d0, shift, 3, 250
    )
    got = execcore.serve_fused(
        engine, wq, np.take(engine._sep_f64[0], wq), xq,
        lutkernel.RequantTail(zw, m0, d0, shift, 3, 250, 9), np.int64,
    )
    assert np.array_equal(got, want)
    if not lutkernel.kernel_available():
        return
    wrow = (wq * levels).astype(np.int64)
    wrow[0, ::3] = -(1 << 40)
    wrow[8, 9] = engine.lut_flat.size + 7
    xq_u8 = (xq % levels).astype(np.uint8)
    want = execcore._serve_reference(
        engine.lut_flat, wrow, xq_u8, zw, m0, d0, shift, 3, 250
    )
    got = lutkernel.serve_tail(
        engine._lut_i32, wrow, xq_u8, xq_u8.sum(axis=0, dtype=np.int64),
        lutkernel.RequantTail(zw, m0, d0, shift, 3, 250, 9),
    )
    assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# the float tail: every LUT layer of the zoo ends in one fused op
# ----------------------------------------------------------------------
#: Tiny zoo models; VGG needs 32 pixels for its five pools.
ZOO = {
    "lenet": (lambda: LeNet(num_classes=4, image_size=12, seed=11), 12),
    "resnet18": (lambda: resnet18(num_classes=4, width_mult=0.0625), 8),
    "resnet34": (lambda: resnet34(num_classes=4, width_mult=0.0625), 8),
    "resnet50": (lambda: resnet50(num_classes=4, width_mult=0.0625), 8),
    "vgg11": (lambda: vgg11(num_classes=4, width_mult=0.0625), 32),
    "vgg19": (lambda: vgg19(num_classes=4, width_mult=0.0625), 32),
    "mobilenet_small": (
        lambda: mobilenet_small(num_classes=4, width_mult=0.125), 8
    ),
}
#: A gather multiplier, a synthesized one and the rank-1 one.
ZOO_MULTS = ("mul8u_2NDH", "mul8u_syn1", "mul8u_1DMU")


def _frozen_zoo_model(arch, mult):
    from repro.autograd import Tensor
    from repro.autograd.tensor import no_grad

    build, size = ZOO[arch]
    model = build()
    with no_grad():  # non-trivial BatchNorm running statistics
        model(Tensor(np.random.default_rng(90).standard_normal(
            (8, 3, size, size)
        )))
    model = approximate_model(
        model, get_multiplier(mult), gradient_method="none",
        include_linear=arch == "lenet",
    )
    ds = SyntheticImageDataset(16, 4, size, seed=11, split="train")
    calibrate(model, DataLoader(ds, batch_size=16), batches=1)
    freeze(model)
    model.eval()
    return model, np.random.default_rng(5).standard_normal((3, 3, size, size))


def _runs(plan, x):
    """Byte strings of a batch run and of one run per sample."""
    return [plan.run(x).tobytes()] + [
        plan.run(x[i : i + 1]).tobytes() for i in range(len(x))
    ]


@pytest.mark.parametrize("arch", list(ZOO))
def test_zoo_fused_plans_match_unfused_by_bytes(arch, monkeypatch,
                                                clean_backend):
    """Fused and ``fuse=False`` int plans agree byte for byte (zero signs
    included) on every zoo model and multiplier, batched and one sample
    at a time, on C at 1, 4 and 7 threads and on numpy; the float plan
    verifies against the training graph."""
    cases = []
    for mult in ZOO_MULTS:
        model, x = _frozen_zoo_model(arch, mult)
        want = compile_plan(model, example_input=x).run(x)
        fused = compile_plan(model, arithmetic="int")
        unfused = compile_plan(model, arithmetic="int", fuse=False)
        assert fused.fused_ops == fused.lutgemm_ops > 0
        assert not any(op.kind in ("lutgemm_int", "dequant")
                       for op in fused.ops)
        ref = _runs(unfused, x)
        np.testing.assert_array_equal(fused.run(x), want)
        cases.append((fused, unfused, x, ref))
    for threads in ("1", "4", "7"):
        monkeypatch.setenv("REPRO_LUTKERNEL_THREADS", threads)
        for fused, _unfused, x, ref in cases:
            assert _runs(fused, x) == ref, threads
    monkeypatch.setenv("REPRO_NO_CCKERNEL", "1")
    execcore.reset_backend_state()
    for fused, unfused, x, ref in cases:
        assert _runs(fused, x) == ref
        assert _runs(unfused, x) == ref


def test_resnet18_int_plan_structure(block_models):
    """All 20 LUT layers of ResNet-18 are fused ops, and each conv
    shortcut runs before the main path's last conv, which adds it."""
    plan = compile_plan(block_models[("resnet18", "mul8u_2NDH")],
                        arithmetic="int")
    kinds = [op.kind for op in plan.ops]
    assert plan.fused_ops == 20
    assert {"lutgemm_int", "dequant", "requant", "join"}.isdisjoint(kinds)
    shortcuts = [i for i, op in enumerate(plan.ops)
                 if op.kind == "fused_int" and ".shortcut." in op.name]
    assert len(shortcuts) == 3
    # What stays float: each block's quant (main path and conv shortcut),
    # the global-average pool and the head linear.
    quants = [op.name for op in plan.ops[1:] if op.kind == "quant"]
    assert len(quants) == 8 + 3
    assert integer_core_report(plan)["float_ops"] == quants + [
        op.name for op in plan.ops[-2:]
    ]
    assert [op.kind for op in plan.ops[-2:]] == ["pool", "float"]
    for i in shortcuts:
        block = plan.ops[i].name.split(".shortcut.")[0]
        adds = [j for j, op in enumerate(plan.ops)
                if op.residual and op.name.startswith(block + ".conv2.")]
        assert len(adds) == 1 and i < adds[0]
        assert plan.ops[adds[0]].name.endswith("+dequant+bn+join")


def _float_tail_case(per_channel, m=9, k=12, c=150, seed=0):
    """A uint16 LUT, operands, and FloatTail constants whose dequant
    rounds differently in any other order."""
    rng = np.random.default_rng(seed)
    levels = 64
    lut = edge_lut(levels)
    wrow, xq = edge_operands(levels, m, k, c, seed=seed)
    size = m if per_channel else 1
    consts = dict(
        zw=rng.integers(0, 5, size=size),
        w_corr=rng.standard_normal(m) * 1e5,
        const_corr=rng.standard_normal(size) * 1e-3,
        scale=rng.standard_normal(size) * 1e-4,
        bias=rng.standard_normal(m),
        bn=tuple(rng.standard_normal((4, m))),
    )
    return lut, wrow, xq, consts, rng


@pytest.mark.parametrize("body", ["vbmi", "scalar"])
@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("c", [1, 31, 150])
def test_float_tail_matches_the_numpy_reference(monkeypatch, body,
                                                per_channel, c):
    """``serve_tail`` / ``tail_f64`` with a FloatTail against the numpy
    reference, bit for bit: both bodies, int32 and int64 sums, 1 and 4
    threads, with and without bias, BN, residual and ReLU; the residual
    cancels some outputs to +0.0 and negative outputs reach the ReLU
    (-0.0)."""
    from repro.core import lutkernel

    if not lutkernel.kernel_available():
        pytest.skip("C kernel disabled or no compiler")
    force_body(monkeypatch, body)
    lut, wrow, xq, consts, rng = _float_tail_case(per_channel, c=c)
    planes = lutkernel.byte_planes(lut)
    colsum = xq.sum(axis=0, dtype=np.int64)
    acc = lut[wrow[:, :, None] + xq[None]].sum(axis=1, dtype=np.int64)
    zeros = 0
    for bias, bn, residual, relu in (
        (False, False, False, False), (True, True, False, True),
        (False, True, True, True), (True, False, True, False),
    ):
        kw = dict(consts, bias=consts["bias"] if bias else None,
                  bn=consts["bn"] if bn else None)
        resid = None
        if residual:
            resid = -execcore._numpy_tail(acc, colsum, lutkernel.FloatTail(**kw))
            resid[:, 1::2] = rng.standard_normal(resid[:, 1::2].shape)
        tail = lutkernel.FloatTail(**kw, residual=residual, relu=relu)
        want = execcore._numpy_tail(acc, colsum, tail, resid)
        assert want.shape == (9, c) and want.dtype == np.float64
        zeros += int(np.sum((want == 0) & np.signbit(want)))
        zeros += int(np.sum((want == 0) & ~np.signbit(want)))
        got = [lutkernel.tail_f64(acc.astype(np.float64), colsum, tail,
                                  resid)]
        for threads in (1, 4):
            for acc_dtype in (np.int64, np.int32):
                got.append(lutkernel.serve_tail(
                    lut, wrow, xq, colsum, tail, acc_dtype, threads,
                    planes=planes, resid=resid,
                ))
        for g in got:
            assert g.tobytes() == want.tobytes()
    assert zeros > 0


def test_serve_self_check_rejects_a_wrong_float_tail(monkeypatch):
    """A float tail whose ReLU is ``max(y, 0)`` (+0.0 where the plan's
    ``y * (y > 0)`` gives -0.0) fails the serving self-check."""
    from repro.core import lutkernel

    if not lutkernel.kernel_available():
        pytest.skip("C kernel disabled or no compiler")
    real = lutkernel.serve_tail

    def plus_zero(*args, **kwargs):
        out = real(*args, **kwargs)
        if out is not None and out.dtype == np.float64:
            out[out == 0] = 0.0
        return out

    assert execcore._run_serve_self_check()
    monkeypatch.setattr(lutkernel, "serve_tail", plus_zero)
    with pytest.warns(RuntimeWarning, match="float serving tail"):
        assert not execcore._run_serve_self_check()

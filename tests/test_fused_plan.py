"""Tests for the fused integer serving pipeline (PR 9).

Contract under test: ``compile_plan(..., arithmetic="int")`` fuses every
``lutgemm_int -> requant [-> relu]`` run into one ``fused_int`` op backed
by the single-loop C serving kernel, and the fused plan stays
**bit-identical** to the float plan and the unfused integer plan -- on
the C backend and the numpy fallback, across thread counts, for empty
micro-batches, and after requant constants are rebound (the shm path).
"""

import numpy as np
import pytest

from repro.core import execcore
from repro.data import DataLoader, SyntheticImageDataset
from repro.errors import ServeError
from repro.models import LeNet
from repro.multipliers import get_multiplier
from repro.nn.requant import RequantParams
from repro.retrain.convert import approximate_model, calibrate, freeze
from repro.serve.plan import (
    assert_integer_core,
    compile_plan,
    fuse_integer_plan,
    rebind_requant_op,
    requant_params_of,
)

MULT = "mul8u_1DMU"


@pytest.fixture(scope="module")
def lenet_frozen():
    model = approximate_model(
        LeNet(num_classes=4, image_size=12, seed=11),
        get_multiplier(MULT),
        gradient_method="none", hws=2, include_linear=True,
    )
    ds = SyntheticImageDataset(64, 4, 12, seed=11, split="train")
    calibrate(model, DataLoader(ds, batch_size=32), batches=2)
    freeze(model)
    model.eval()
    return model


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(3).standard_normal((6, 3, 12, 12))


@pytest.fixture()
def clean_backend():
    """Reset the cached backend verdicts around env-var manipulation."""
    execcore.reset_backend_state()
    yield
    execcore.reset_backend_state()


# ----------------------------------------------------------------------
# fusion pass structure
# ----------------------------------------------------------------------
def test_fusion_is_default_for_int_plans(lenet_frozen):
    plan = compile_plan(lenet_frozen, arithmetic="int")
    assert plan.fused_ops > 0
    # Every fused op is uint8 -> uint8 and records what it absorbed.
    for op in plan.ops:
        if op.kind == "fused_int":
            assert op.dtype_in == "uint8" and op.dtype_out == "uint8"
            assert "+requant" in op.name
            assert op.meta is not None and len(op.meta["fused"]) >= 2
    # The last gather feeds dequant, so exactly one lutgemm_int survives.
    kinds = [op.kind for op in plan.ops]
    assert kinds.count("lutgemm_int") == 1
    assert kinds.count("requant") == 0
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


def test_requant_params_of_views(lenet_frozen):
    fused = compile_plan(lenet_frozen, arithmetic="int")
    unfused = compile_plan(lenet_frozen, arithmetic="int", fuse=False)
    for op in fused.ops:
        if op.kind == "fused_int":
            assert isinstance(requant_params_of(op), RequantParams)
        else:
            assert requant_params_of(op) is None
    assert any(
        isinstance(requant_params_of(op), RequantParams)
        for op in unfused.ops if op.kind == "requant"
    )


# ----------------------------------------------------------------------
# bit identity: C backend, numpy fallback, threads
# ----------------------------------------------------------------------
def test_fused_bit_identical_to_float_and_unfused(lenet_frozen, batch):
    yf = compile_plan(lenet_frozen, example_input=batch).run(batch)
    yu = compile_plan(lenet_frozen, arithmetic="int", fuse=False).run(batch)
    yv = compile_plan(lenet_frozen, arithmetic="int").run(batch)
    np.testing.assert_array_equal(yf, yu)
    np.testing.assert_array_equal(yu, yv)


def test_fused_numpy_fallback_bit_identical(
    lenet_frozen, batch, monkeypatch, clean_backend
):
    plan = compile_plan(lenet_frozen, arithmetic="int")
    want = plan.run(batch)
    monkeypatch.setenv("REPRO_NO_CCKERNEL", "1")
    execcore.reset_backend_state()
    assert execcore.backend_info()["serve_backend"] == "numpy"
    np.testing.assert_array_equal(plan.run(batch), want)


@pytest.mark.parametrize("threads", ["1", "4"])
def test_fused_thread_counts_bit_identical(
    lenet_frozen, batch, monkeypatch, threads
):
    plan = compile_plan(lenet_frozen, arithmetic="int")
    want = plan.run(batch)
    monkeypatch.setenv("REPRO_LUTKERNEL_THREADS", threads)
    np.testing.assert_array_equal(plan.run(batch), want)


def test_serve_backend_reported(lenet_frozen):
    plan = compile_plan(lenet_frozen, arithmetic="int")
    summary = plan.op_summary()
    assert summary["serve_backend"] in ("c", "numpy")
    assert "fused [" in plan.describe().splitlines()[0]


# ----------------------------------------------------------------------
# degenerate shapes: zero-row micro-batches flow end to end
# ----------------------------------------------------------------------
def test_empty_batch_through_fused_plan(lenet_frozen, monkeypatch, clean_backend):
    plan = compile_plan(lenet_frozen, arithmetic="int")
    out = plan.run(np.empty((0, 3, 12, 12)))
    assert out.shape == (0, 4)
    monkeypatch.setenv("REPRO_NO_CCKERNEL", "1")
    execcore.reset_backend_state()
    out = plan.run(np.empty((0, 3, 12, 12)))
    assert out.shape == (0, 4)


def test_empty_batch_through_unfused_plan(lenet_frozen):
    plan = compile_plan(lenet_frozen, arithmetic="int", fuse=False)
    assert plan.run(np.empty((0, 3, 12, 12))).shape == (0, 4)


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
@pytest.mark.parametrize("per_channel", [False, True])
@pytest.mark.parametrize("threads", [1, 4, 7])
@pytest.mark.parametrize("in_bounds", [True, False])
@pytest.mark.parametrize("c", [1, 23])
@pytest.mark.parametrize("acc_dtype", [np.int64, np.int32])
def test_fused_serve_matches_reference(
    acc_dtype, c, in_bounds, threads, per_channel
):
    from repro.core import lutkernel

    if not lutkernel.kernel_available():
        pytest.skip("C kernel disabled or no compiler")
    rng = np.random.default_rng(0xC0FFEE + c)
    levels = 16
    # M = 9 splits unevenly over 4 and 7 threads; K = 10 leaves a
    # remainder after the C == 1 branch's four accumulator chains.
    m, k = 9, 10
    lut = rng.integers(-500, 500, size=levels * levels).astype(np.int32)
    wrow = (rng.integers(0, levels, size=(m, k)) * levels).astype(np.int64)
    xq = rng.integers(0, levels, size=(k, c)).astype(np.int32)
    if not in_bounds:
        # Indices past both table ends take the clamping gather.
        xq[0, ::2] = 4000
        xq[k - 1, c - 1] = -99
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
    qlo, qhi = 3, 250
    colsum = xq.sum(axis=0, dtype=np.int64)
    want = execcore._serve_reference(
        lut, wrow, xq, zw, m0, d0, shift, qlo, qhi
    )
    got = lutkernel.fused_serve(
        lut, wrow, xq, colsum, zw, m0, d0, shift, qlo, qhi,
        acc_dtype=acc_dtype, threads=threads,
    )
    assert got.dtype == np.uint8 and got.shape == (m, c)
    assert np.array_equal(got, want)
    if in_bounds:
        assert ((want > qlo) & (want < qhi)).any()
    if per_channel:
        assert (want[0] == qhi).all() and (want[1] == qlo).all()


# ----------------------------------------------------------------------
# rebind: constants re-resolved at call time (the shm seam)
# ----------------------------------------------------------------------
def test_rebind_fused_op_takes_effect_at_call_time(lenet_frozen, batch):
    plan = compile_plan(lenet_frozen, arithmetic="int")
    want = plan.run(batch)
    op = next(op for op in plan.ops if op.kind == "fused_int")
    rp = requant_params_of(op)
    clone = RequantParams(
        m0=rp.m0.copy(), d0=rp.d0.copy(), shift=rp.shift.copy(),
        qmin=rp.qmin, qmax=rp.qmax, acc_abs_max=rp.acc_abs_max,
    )
    rebind_requant_op(op, clone)
    # The swap is observable (no stale closure) and bit-identical.
    assert requant_params_of(op) is clone
    np.testing.assert_array_equal(plan.run(batch), want)


def test_rebind_fused_op_rejects_different_constants(lenet_frozen):
    plan = compile_plan(lenet_frozen, arithmetic="int")
    op = next(op for op in plan.ops if op.kind == "fused_int")
    rp = requant_params_of(op)
    bad = RequantParams(
        m0=rp.m0 + 1, d0=rp.d0.copy(), shift=rp.shift.copy(),
        qmin=rp.qmin, qmax=rp.qmax, acc_abs_max=rp.acc_abs_max,
    )
    with pytest.raises(ServeError):
        rebind_requant_op(op, bad)


def test_rebind_rejects_unrelated_op(lenet_frozen):
    plan = compile_plan(lenet_frozen, arithmetic="int")
    op = next(op for op in plan.ops if op.kind == "quant")
    rp = requant_params_of(
        next(op for op in plan.ops if op.kind == "fused_int")
    )
    with pytest.raises(ServeError):
        rebind_requant_op(op, rp)


# ----------------------------------------------------------------------
# shm publication of fused constants (zero-copy views)
# ----------------------------------------------------------------------
def test_publish_plan_rebinds_fused_constants(lenet_frozen, batch):
    from repro.serve.shm import SharedLutStore

    plan = compile_plan(lenet_frozen, arithmetic="int")
    want = plan.run(batch)
    with SharedLutStore(prefix="repro-test-fused") as store:
        info = store.publish_plan(plan)
        assert any(k.startswith("requant/") for k in info["keys"])
        for op in plan.ops:
            if op.kind == "fused_int":
                rp = requant_params_of(op)
                # shm-backed views are read-only; the C kernel reads them
                # zero-copy through the call-time re-resolve.
                assert not rp.m0.flags.writeable
        np.testing.assert_array_equal(plan.run(batch), want)
    # close() restored private constants; the plan is still usable.
    np.testing.assert_array_equal(plan.run(batch), want)

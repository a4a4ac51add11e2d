"""Tests for the integer-only serving plan (compile_plan arithmetic="int").

The contract under test: on every supported model shape the integer plan's
outputs are **bit-identical** to the float-scale plan (which is itself
bit-identical to the eval-mode training graph), and between the input
``quant`` op and the first float output (a ``dequant``, or a fused op's
float tail) no tensor is float -- asserted structurally by
:func:`repro.serve.plan.assert_integer_core` and behaviorally by running
the plan with dtype-spying wrappers.  Each
check runs once per LUT-GEMM lowering: ``mul8u_1DMU`` has a rank-1 LUT
(exact float64 matmul), ``mul8u_2NDH`` does not (gather).
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.tensor import no_grad
from repro.data import DataLoader, SyntheticImageDataset
from repro.errors import ServeError
from repro.models import LeNet
from repro.models.resnet import BasicBlock, Bottleneck
from repro.multipliers import get_multiplier
from repro.nn.approx import ApproxConv2d, ApproxLinear
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    Sequential,
)
from repro.retrain.convert import approximate_model, calibrate, freeze
from repro.serve import ServeMetrics, WorkerPool
from repro.serve.plan import (
    assert_integer_core,
    compile_plan,
    integer_core_report,
)

#: One multiplier per LUT-GEMM lowering: separable, then gather.
MULTS = ("mul8u_1DMU", "mul8u_2NDH")


def _prep(model, seed=11, size=12, bn_batches=0):
    if bn_batches:
        model.train()
        with no_grad():
            for b in range(bn_batches):
                xb = np.random.default_rng(90 + b).standard_normal(
                    (16, 3, size, size)
                )
                model(Tensor(xb))
    ds = SyntheticImageDataset(64, 4, size, seed=seed, split="train")
    calibrate(model, DataLoader(ds, batch_size=32), batches=2)
    freeze(model)
    model.eval()
    return model


def _check_bit_identity(model, x):
    float_plan = compile_plan(model, example_input=x)
    int_plan = compile_plan(model, arithmetic="int")
    yf = float_plan.run(x)
    yi = int_plan.run(x)
    np.testing.assert_array_equal(yf, yi)
    return int_plan


@pytest.fixture(scope="module")
def lenet_models():
    return {
        mult: _prep(
            approximate_model(
                LeNet(num_classes=4, image_size=12, seed=11),
                get_multiplier(mult),
                gradient_method="none", hws=2, include_linear=True,
            )
        )
        for mult in MULTS
    }


@pytest.fixture(scope="module")
def lenet_frozen(lenet_models):
    return lenet_models[MULTS[0]]


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(3).standard_normal((6, 3, 12, 12))


# ----------------------------------------------------------------------
# bit identity across the test-model suite
# ----------------------------------------------------------------------
def test_lenet_bit_identical_and_integer_only(lenet_models, batch):
    for model in lenet_models.values():
        plan = _check_bit_identity(model, batch)
        assert_integer_core(plan)
        report = integer_core_report(plan)
        assert report["integer_only"]
        assert report["float_ops"] == []


def test_per_channel_weights_bit_identical(batch):
    for mult in MULTS:
        model = approximate_model(
            LeNet(num_classes=4, image_size=12, seed=7),
            get_multiplier(mult),
            gradient_method="none", include_linear=True,
            per_channel_weights=True,
        )
        _prep(model, seed=7)
        plan = _check_bit_identity(model, batch)
        assert_integer_core(plan)


def test_bn_folds_into_requant(batch):
    for mult in MULTS:
        rng = np.random.default_rng(5)
        seq = Sequential(
            Conv2d(3, 8, 3, rng=rng, padding=1),
            BatchNorm2d(8),
            ReLU(),
            Conv2d(8, 8, 3, rng=rng, padding=1),
            BatchNorm2d(8),
            ReLU(),
            Flatten(),
            Linear(8 * 12 * 12, 4, rng=rng),
        )
        model = approximate_model(
            seq, get_multiplier(mult), gradient_method="none",
            include_linear=True,
        )
        _prep(model, bn_batches=2)
        plan = _check_bit_identity(model, batch)
        assert_integer_core(plan)
        # The BN layers folded into requant constants: no "float"-kind BN
        # op survives in the plan.  The folded requants then fuse into
        # their gathers (conv1->conv2 and conv2->linear), so they surface
        # as fused_int ops rather than standalone requant ops, and the
        # linear's exact dequant fuses into its float tail.
        kinds = [op.kind for op in plan.ops]
        assert "float" not in kinds
        assert [
            (op.dtype_in, op.dtype_out) for op in plan.ops
            if op.kind == "fused_int"
        ] == [("uint8", "uint8")] * 2 + [("uint8", "float64")]
        assert kinds.count("requant") == kinds.count("dequant") == 0
        # The unfused plan still shows the standalone requant pair.
        unfused = compile_plan(model, arithmetic="int", fuse=False)
        assert [op.kind for op in unfused.ops].count("requant") == 2


def test_float_fallback_models_stay_bit_identical(batch):
    for mult in MULTS:
        rng = np.random.default_rng(6)
        for name, tail in (
            ("gap", GlobalAvgPool2d()),
            ("avgpool", Sequential(AvgPool2d(2), Flatten())),
        ):
            mid = Sequential(
                Conv2d(3, 8, 3, rng=rng, padding=1),
                ReLU(),
                tail,
                Linear(8 if name == "gap" else 8 * 6 * 6, 4, rng=rng),
            )
            model = approximate_model(
                mid, get_multiplier(mult), gradient_method="none",
                include_linear=True,
            )
            _prep(model)
            plan = _check_bit_identity(model, batch)
            # The non-commuting pool forces a float region mid-plan.
            report = integer_core_report(plan)
            assert report["has_core"]
            assert not report["integer_only"]
            with pytest.raises(ServeError):
                assert_integer_core(plan)


def test_no_c_kernel_numpy_path_bit_identical(lenet_models, batch, monkeypatch):
    from repro.core import lutkernel

    monkeypatch.setattr(lutkernel, "fused_product_sums", lambda *a: None)
    monkeypatch.setattr(lutkernel, "serve_tail", lambda *a, **k: None)
    monkeypatch.setattr(lutkernel, "tail_f64", lambda *a: None)
    for model in lenet_models.values():
        _check_bit_identity(model, batch)


def test_int_plan_verifies_against_training_graph(
    lenet_models, batch, block_models, block_batch
):
    # verify_plan compares against the eval-mode autograd forward; the
    # integer plan must survive it too (exact dequant at the boundary).
    for model in lenet_models.values():
        compile_plan(model, example_input=batch, arithmetic="int")
    for model in block_models.values():
        compile_plan(model, example_input=block_batch, arithmetic="int")
        compile_plan(model, example_input=block_batch, arithmetic="int",
                     fuse=False)


def test_block_layers_compile_inline(block_models):
    """Every approximate layer inside a residual or separable block is a
    top-level plan op, so counts, fusion and the core report see it."""
    for (arch, _mult), model in block_models.items():
        modules = list(model.modules())
        n_approx = sum(
            isinstance(m, (ApproxConv2d, ApproxLinear)) for m in modules
        )
        n_blocks = sum(isinstance(m, (BasicBlock, Bottleneck)) for m in modules)
        for kwargs in ({}, {"arithmetic": "int", "fuse": False},
                       {"arithmetic": "int"}):
            plan = compile_plan(model, **kwargs)
            assert plan.lutgemm_ops == n_approx, (arch, kwargs)
            kinds = [op.kind for op in plan.ops]
            for structural in ("save", "branch"):
                assert kinds.count(structural) == n_blocks, (arch, kwargs)
            # One residual add per block: a join op, or the fused op of
            # the main path's last conv, which absorbed it.
            residual = [op for op in plan.ops if op.residual]
            assert len(residual) == n_blocks, (arch, kwargs)
        # The default (fused) integer plan, compiled last in the loop:
        # every LUT layer is one fused op, and each block's main path ends
        # in the float tail that adds the shortcut.
        assert plan.fused_ops == n_approx, arch
        assert {"lutgemm_int", "requant", "dequant", "join"}.isdisjoint(kinds)
        assert all(op.name.endswith("+bn+join") for op in residual)
        # The residual add runs in float, so each block's main path (and
        # conv shortcut) starts with a quant op that the report names.
        report = integer_core_report(plan)
        assert report["has_core"] and not report["integer_only"]
        start = report["span"][0]
        quants = [op.name for op in plan.ops[start + 1 :]
                  if op.kind == "quant"]
        assert len(quants) >= n_blocks
        assert set(quants) <= set(report["float_ops"])
        assert not any(op.kind == "fused_int" and op.name in report["float_ops"]
                       for op in plan.ops)


# ----------------------------------------------------------------------
# structural properties of the integer core
# ----------------------------------------------------------------------
def test_no_float_dtype_at_runtime_inside_core(lenet_models, batch):
    """Behavioral check: spy on every op's output dtype while running."""
    for model in lenet_models.values():
        plan = compile_plan(model, arithmetic="int")
        start, end = plan.integer_core()
        seen = {}

        def wrap(i, fn):
            def spy(x):
                out = fn(x)
                seen[i] = out.dtype
                return out
            return spy

        for i, op in enumerate(plan.ops):
            op.fn = wrap(i, op.fn)
        plan.run(batch)
        for i in range(start, end):  # everything before the final dequant
            assert seen[i].kind in "ui", (i, seen[i])
        assert seen[end] == np.float64


def test_op_dtype_tags_match_runtime(lenet_models, batch):
    for model in lenet_models.values():
        plan = compile_plan(model, arithmetic="int")
        x = np.asarray(batch, dtype=np.float64)
        for op in plan.ops:
            assert str(x.dtype) == op.dtype_in, op
            x = op.fn(x)
            assert str(x.dtype) == op.dtype_out, op


def test_describe_and_summary_expose_integer_pipeline(lenet_frozen):
    plan = compile_plan(lenet_frozen, arithmetic="int")
    text = plan.describe()
    # Every gather is fused: gather->requant[->relu] runs end in uint8,
    # the final gather's dequant in its float tail.
    assert "lutgemm_int" not in text
    assert "fused_int" in text
    assert "serve backend" in text
    assert "(uint8 -> uint8)" in text and "+dequant  (uint8 -> float64)" in text
    summary = plan.op_summary()
    assert summary["arithmetic"] == "int"
    assert summary["integer_only_core"] is True
    assert summary["kinds"]["fused_int"] >= 1
    assert summary["fused_ops"] == plan.fused_ops >= 1
    assert summary["serve_backend"] in ("c", "numpy")
    assert summary["lutgemm_ops"] == plan.lutgemm_ops
    # Opting out of fusion restores the standalone requant pipeline.
    unfused = compile_plan(lenet_frozen, arithmetic="int", fuse=False)
    assert unfused.fused_ops == 0
    assert unfused.op_summary()["kinds"]["requant"] >= 1


def test_summary_and_describe_name_the_lowering(lenet_models):
    for mult, model in lenet_models.items():
        for fuse in (True, False):
            plan = compile_plan(model, arithmetic="int", fuse=fuse)
            summary = plan.op_summary()
            tagged = [
                line for line in plan.describe().splitlines()[1:]
                if line.endswith("[separable]")
            ]
            if mult == "mul8u_1DMU":
                # Every LUT-GEMM op of the rank-1 multiplier skips the
                # gather, fused or not.
                assert summary["separable_ops"] == plan.lutgemm_ops > 0
                assert len(tagged) == plan.lutgemm_ops
                assert f"{plan.lutgemm_ops} separable" in plan.describe()
            else:
                assert summary["separable_ops"] == 0
                assert tagged == []


def test_unknown_arithmetic_rejected(lenet_frozen):
    with pytest.raises(ServeError):
        compile_plan(lenet_frozen, arithmetic="fixed")


def test_assert_integer_core_rejects_float_plan(lenet_frozen):
    plan = compile_plan(lenet_frozen)  # arithmetic="float"
    with pytest.raises(ServeError):
        assert_integer_core(plan)


# ----------------------------------------------------------------------
# plumbing: metrics expose the live plan summary
# ----------------------------------------------------------------------
def test_worker_pool_records_plan_info(lenet_frozen, batch):
    metrics = ServeMetrics()
    pool = WorkerPool(
        lambda: compile_plan(lenet_frozen, arithmetic="int"),
        workers=1, metrics=metrics,
    )
    pool.start()
    try:
        pool.infer(batch[0])
    finally:
        pool.shutdown()
    info = metrics.as_dict()["plan"]
    assert info["arithmetic"] == "int"
    assert info["integer_only_core"] is True
    assert "plan:" in metrics.format_report()


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
@pytest.mark.parametrize("kernel,stride", [(2, 2), (2, 1), (3, 1), (3, 2)])
def test_plan_max_pool_matches_the_windowed_max(dtype, kernel, stride):
    """The plan's max-pool against the windowed reduce it replaced, by
    bit pattern: odd and even sizes, and float windows of +0.0 / -0.0
    mixes and NaNs."""
    from repro.nn import functional as F
    from repro.serve.plan import _max_pool, _pool_patches

    rng = np.random.default_rng(kernel * 10 + stride)
    for h, w in ((7, 9), (8, 8), (5, 3)):
        if dtype == np.uint8:
            x = rng.integers(0, 256, size=(2, 3, h, w)).astype(np.uint8)
        else:
            x = rng.choice(
                np.array([0.0, -0.0, np.nan, 1.5, -2.0]), size=(2, 3, h, w)
            )
        oh, ow = F.conv_output_size(h, w, kernel, kernel, stride, 0)
        want = _pool_patches(x, kernel, stride, oh, ow).max(axis=(-1, -2))
        got = _max_pool(x, kernel, stride)
        assert got.dtype == want.dtype and got.shape == want.shape
        bits = f"u{x.itemsize}"
        assert np.array_equal(got.view(bits), want.view(bits)), (h, w)

"""Fused C retraining kernel: bit-identity, env handling, compile cache.

Everything here must also pass with ``REPRO_NO_CCKERNEL=1`` (the CI
numpy-fallback leg): tests that require the compiled kernel are skipped
when it is unavailable, and the rest exercise the env/cache machinery
itself.
"""

import os
import warnings

import numpy as np
import pytest

from repro.core import execcore, lutkernel
from repro.core.gradient import gradient_luts
from repro.core.lutgemm import (
    DEFAULT_CHUNK,
    LutGemm,
    clear_engine_cache,
)
from repro.multipliers import get_multiplier
from tests.gather_bodies import (
    BODY_COLUMNS,
    NO_VBMI,
    edge_grad_table,
    edge_gout,
    edge_lut,
    edge_operands,
    force_body,
    runs_vbmi,
    same_bits,
    vbmi_ok,
)

MULT = get_multiplier("mul6u_rm4")
PAIR = gradient_luts(MULT, "difference", hws=2)

_KERNEL_OK = lutkernel.kernel_available()

requires_kernel = pytest.mark.skipif(
    not _KERNEL_OK, reason="C kernel unavailable (no compiler or disabled)"
)


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_engine_cache()
    yield
    clear_engine_cache()


@pytest.fixture
def restore_backend():
    """Reset kernel/self-check state before and after a test that pokes it."""
    execcore.reset_backend_state()
    yield
    execcore.reset_backend_state()


def _operands(m, k, c, seed=0):
    rng = np.random.default_rng(seed)
    n = 1 << MULT.bits
    wq = rng.integers(0, n, size=(m, k)).astype(np.int32)
    xq = rng.integers(0, n, size=(k, c)).astype(np.int32)
    gout = rng.normal(size=(m, c)).astype(np.float32)
    return wq, xq, gout


def _numpy_results(wq, xq, gout, zw, zx, chunk=DEFAULT_CHUNK, acc_dtype=np.int64):
    """Forward + backward through a fresh engine pinned to the numpy path."""
    prior = os.environ.get("REPRO_NO_CCKERNEL")
    os.environ["REPRO_NO_CCKERNEL"] = "1"
    try:
        eng = LutGemm(MULT, PAIR, chunk=chunk)
        acc = eng.product_sums(wq, xq, acc_dtype=acc_dtype)
        gw, gx = eng.backward_grads(wq, xq, gout, zw, zx)
        assert eng.ckernel_forward_calls == 0
        assert eng.ckernel_backward_calls == 0
    finally:
        if prior is None:
            del os.environ["REPRO_NO_CCKERNEL"]
        else:
            os.environ["REPRO_NO_CCKERNEL"] = prior
    return acc, gw, gx


# Shapes at/above FUSED_MIN_ELEMS so the C path engages, with odd,
# non-round dimensions (uneven tail chunks, pairwise-sum tails).
ODD_SHAPES = [(8, 32, 100), (7, 13, 281), (5, 11, 503)]


@requires_kernel
@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("acc_dtype", [np.int64, np.int32])
def test_engine_bit_identity_c_vs_numpy(monkeypatch, threads, acc_dtype):
    monkeypatch.setenv(lutkernel.THREADS_ENV, threads)
    for i, (m, k, c) in enumerate(ODD_SHAPES):
        wq, xq, gout = _operands(m, k, c, seed=i)
        assert m * k * c >= execcore.FUSED_MIN_ELEMS
        acc_ref, gw_ref, gx_ref = _numpy_results(
            wq, xq, gout, zw=3, zx=5, chunk=96, acc_dtype=acc_dtype
        )
        eng = LutGemm(MULT, PAIR, chunk=96)
        acc = eng.product_sums(wq, xq, acc_dtype=acc_dtype)
        gw, gx = eng.backward_grads(wq, xq, gout, 3, 5)
        assert eng.ckernel_forward_calls == 1
        assert np.array_equal(acc, acc_ref)
        assert acc.dtype == np.dtype(acc_dtype)
        if execcore.backward_kernel_trusted():
            assert eng.ckernel_backward_calls == 1
        assert np.array_equal(gw, gw_ref)
        assert np.array_equal(gx, gx_ref)


@requires_kernel
def test_per_channel_zero_points_on_c_backward():
    m, k, c = ODD_SHAPES[0]
    wq, xq, gout = _operands(m, k, c, seed=9)
    zw_vec = np.arange(1, m + 1, dtype=np.float64)
    _, gw_ref, gx_ref = _numpy_results(wq, xq, gout, zw=zw_vec, zx=4)
    eng = LutGemm(MULT, PAIR)
    eng.product_sums(wq, xq)
    gw, gx = eng.backward_grads(wq, xq, gout, zw_vec, 4)
    assert np.array_equal(gw, gw_ref)
    assert np.array_equal(gx, gx_ref)


@requires_kernel
def test_small_gemms_stay_on_numpy_path():
    eng = LutGemm(MULT, PAIR)
    wq, xq, gout = _operands(4, 6, 10, seed=2)
    eng.product_sums(wq, xq)
    eng.backward_grads(wq, xq, gout, 1, 2)
    assert eng.ckernel_forward_calls == 0
    assert eng.ckernel_backward_calls == 0


@requires_kernel
def test_fortran_ordered_operands_bit_identical():
    # Regression: the ctypes ndpointer signatures reject non-C-contiguous
    # arrays outright, so transpose-path views must be normalized, not
    # crash or silently fall back with different results.
    m, k, c = ODD_SHAPES[1]
    wq, xq, gout = _operands(m, k, c, seed=3)
    acc_ref, gw_ref, gx_ref = _numpy_results(wq, xq, gout, zw=2, zx=7)
    wq_f = np.asfortranarray(wq)
    xq_f = np.asfortranarray(xq)
    gout_f = np.asfortranarray(gout)
    assert not wq_f.flags.c_contiguous
    eng = LutGemm(MULT, PAIR)
    acc = eng.product_sums(wq_f, xq_f)
    gw, gx = eng.backward_grads(wq_f, xq_f, gout_f, 2, 7)
    assert eng.ckernel_forward_calls == 1
    assert np.array_equal(acc, acc_ref)
    assert np.array_equal(gw, gw_ref)
    assert np.array_equal(gx, gx_ref)


@requires_kernel
def test_noncontiguous_column_slice_operands():
    # Strided views (every other column) are another non-contiguous shape
    # the tape can hand the engine.
    m, k, c = 8, 32, 100
    wq, xq, gout = _operands(m, k, 2 * c, seed=4)
    xq_view, gout_view = xq[:, ::2], gout[:, ::2]
    assert not xq_view.flags.c_contiguous
    acc_ref, gw_ref, gx_ref = _numpy_results(
        np.ascontiguousarray(wq),
        np.ascontiguousarray(xq_view),
        np.ascontiguousarray(gout_view),
        zw=1,
        zx=3,
    )
    eng = LutGemm(MULT, PAIR)
    acc = eng.product_sums(wq, xq_view)
    gw, gx = eng.backward_grads(wq, xq_view, gout_view, 1, 3)
    assert np.array_equal(acc, acc_ref)
    assert np.array_equal(gw, gw_ref)
    assert np.array_equal(gx, gx_ref)


@requires_kernel
def test_raw_kernel_threads_bit_identical():
    # Direct wrapper-level check: explicit threads argument, chunk grid
    # not aligned with the column count.
    rng = np.random.default_rng(11)
    levels = 1 << MULT.bits
    wq = rng.integers(0, levels, size=(6, 24))
    wrow = (wq * levels).astype(np.int64)
    xq = rng.integers(0, levels, size=(24, 333)).astype(np.int32)
    gout = rng.normal(size=(6, 333)).astype(np.float32)
    eng = LutGemm(MULT, PAIR)
    base_f = lutkernel.fused_product_sums(eng._lut_i32, wrow, xq, np.int64, 1)
    base_b = lutkernel.fused_backward_grads(
        eng.grad_w_flat, eng.grad_x_flat, wrow, xq, gout, 50, 1
    )
    assert base_f is not None and base_b is not None
    for threads in (2, 4, 7):
        f = lutkernel.fused_product_sums(
            eng._lut_i32, wrow, xq, np.int64, threads
        )
        b = lutkernel.fused_backward_grads(
            eng.grad_w_flat, eng.grad_x_flat, wrow, xq, gout, 50, threads
        )
        assert np.array_equal(f, base_f)
        assert np.array_equal(b[0], base_b[0])
        assert np.array_equal(b[1], base_b[1])


@requires_kernel
@pytest.mark.parametrize("acc_dtype", [np.int64, np.int32])
def test_out_of_range_indices_clip_like_numpy(acc_dtype):
    # A diverged run quantizes NaN weights to INT32_MIN (np.clip keeps
    # NaN, .astype(int32) wraps it).  The numpy gathers clip such
    # indices into the table (np.take mode="clip"); the C kernels must
    # degrade identically instead of dereferencing out of bounds --
    # this exact scenario segfaulted the forward kernel before the fix.
    # Activations off the uint8 grid never reach C: the engine runs the
    # numpy reference for that call, with the same result.
    m, k, c = ODD_SHAPES[0]
    wq, xq, gout = _operands(m, k, c, seed=21)
    wq[0, 0] = np.int32(-(2**31))
    wq[1, 5] = np.int32(2**31 - 1)
    xq_off = xq.copy()
    xq_off[2, ::13] = np.int32(-(2**31))
    xq_off[3, 7] = np.int32(2**31 - 1)
    for x, c_calls in ((xq.astype(np.uint8), 1), (xq_off, 0)):
        acc_ref, gw_ref, gx_ref = _numpy_results(
            wq, x, gout, zw=3, zx=5, acc_dtype=acc_dtype
        )
        eng = LutGemm(MULT, PAIR)
        acc = eng.product_sums(wq, x, acc_dtype=acc_dtype)
        gw, gx = eng.backward_grads(wq, x, gout, 3, 5)
        assert eng.ckernel_forward_calls == c_calls
        if execcore.backward_kernel_trusted():
            assert eng.ckernel_backward_calls == c_calls
        assert np.array_equal(acc, acc_ref)
        assert np.array_equal(gw, gw_ref)
        assert np.array_equal(gx, gx_ref)


def _table_engine(lut, gw_flat=None, gx_flat=None, chunk=96):
    """An engine over a square flat ``lut`` (and gradient tables)."""
    from repro.core.gradient import GradientPair
    from repro.multipliers.base import LutMultiplier

    levels = int(round(np.sqrt(lut.size)))
    bits = levels.bit_length() - 1
    assert 1 << bits == levels and levels * levels == lut.size
    shape = (levels, levels)
    pair = None if gw_flat is None else GradientPair(
        gw_flat.reshape(shape), gx_flat.reshape(shape), "test tables"
    )
    return LutGemm(LutMultiplier("table", bits, lut.reshape(shape)), pair,
                   chunk=chunk)


@requires_kernel
def test_raw_kernel_oob_clip_both_directions():
    # Wrapper-level clip check against an explicit np.clip reference,
    # with weight offsets far outside the table on both sides and the
    # clamp exercised under threading.
    rng = np.random.default_rng(5)
    lut = rng.integers(-100, 100, size=64).astype(np.int32)
    gw_flat = rng.standard_normal(64).astype(np.float32)
    gx_flat = rng.standard_normal(64).astype(np.float32)
    wrow = rng.integers(0, 56, size=(6, 9)).astype(np.int64)
    wrow[0, 0] = -(1 << 50)
    wrow[5, 8] = 1 << 50
    xq = rng.integers(0, 8, size=(9, 700)).astype(np.uint8)
    gout = rng.standard_normal((6, 700)).astype(np.float32)
    idx = np.clip(wrow[:, :, None] + xq[None], 0, lut.size - 1)
    want_f = lut[idx].sum(axis=1, dtype=np.int64)
    want_b = execcore._numpy_backward(
        gw_flat, gx_flat, wrow, xq, gout, 96
    )
    for threads in (1, 3):
        got_f = lutkernel.fused_product_sums(
            lut, wrow, xq, np.int64, threads
        )
        assert np.array_equal(got_f, want_f)
        got_b = lutkernel.fused_backward_grads(
            gw_flat, gx_flat, wrow, xq, gout, 96, threads
        )
        assert got_b is not None
        assert np.array_equal(got_b[0], want_b[0])
        assert np.array_equal(got_b[1], want_b[1])
    # An activation far past the grid: the C gathers decline it, and the
    # execution core's numpy path clips like the reference.
    wq = rng.integers(0, 8, size=(6, 9))
    wq[0, 0], wq[5, 8] = -(1 << 47), 1 << 47
    xq_off = xq.astype(np.int64)
    xq_off[4, ::11] = 100_000
    assert lutkernel.fused_product_sums(lut, wq * 8, xq_off) is None
    assert lutkernel.fused_backward_grads(
        gw_flat, gx_flat, wq * 8, xq_off, gout, 96
    ) is None
    eng = _table_engine(lut, gw_flat, gx_flat)
    idx = np.clip(wq[:, :, None] * 8 + xq_off[None], 0, lut.size - 1)
    got_f = execcore.product_sums(eng, wq, xq_off, np.int64)
    assert np.array_equal(got_f, lut[idx].sum(axis=1, dtype=np.int64))
    got_b = execcore.backward_grads(eng, wq, xq_off, gout)
    want_b = execcore._numpy_backward(
        gw_flat, gx_flat, wq * 8, xq_off, gout, 96
    )
    assert same_bits(got_b, want_b)
    assert eng.ckernel_forward_calls == eng.ckernel_backward_calls == 0


# ----------------------------------------------------------------------
# The in-bounds proof that lets the C gathers skip per-element clamping,
# tested at its exact edges.  The product LUT has 64 entries; the base
# operands (wrow in {0, 8, ..., 56}, xq in [0, 8)) pin the largest flat
# index wrow + xq at exactly 63 and the smallest at exactly 0, and each
# case moves one edge.  Per case: (edit, n_gw, n_gx, smallest index,
# largest index, forward unclamped?, backward unclamped?).
_EDGE_N = 64


def _with(arr, at, value):
    out = arr.copy()
    out[at] = value
    return out


_EDGE_CASES = {
    "in_bounds_max_n_minus_1": (None, 64, 64, 0, 63, True, True),
    "in_bounds_max_n": (
        lambda w, x: (w, _with(x, (8, 3), 8)), 64, 64, 0, 64, False, False,
    ),
    # Offsets below 0 and activations above the grid whose sums still
    # start at exactly 0: the proof bounds the sum, not each operand.
    "in_bounds_min_0_shifted_operands": (
        lambda w, x: (w - 8, x + 8), 64, 64, 0, 63, True, True,
    ),
    # A weight offset one below the table (an activation there is off the
    # uint8 grid, which test_off_grid_activation_edge_runs_numpy covers).
    "in_bounds_min_minus_1": (
        lambda w, x: (_with(w, (0, 0), -1), x), 64, 64, -1, 63, False, False,
    ),
    # The backward proof must use the smaller gradient table.
    "in_bounds_smaller_grad_x_table": (None, 64, 60, 0, 63, True, False),
    "in_bounds_smaller_grad_w_table": (None, 63, 64, 0, 63, True, False),
    "in_bounds_smaller_table_max_n_minus_1": (
        lambda w, x: (w, _with(x % 4, (8, 3), 3)), 64, 60, 0, 59, True, True,
    ),
}


def _edge_operands(edit):
    rng = np.random.default_rng(17)
    wrow = (rng.integers(0, 8, size=(6, 9)) * 8).astype(np.int64)
    xq = rng.integers(0, 8, size=(9, 700)).astype(np.int32)
    wrow[5, 8], xq[8, 3] = 56, 7  # the largest flat index, 63
    wrow[0, 0], xq[0, 5] = 0, 0  # the smallest, 0
    return (wrow, xq) if edit is None else edit(wrow, xq)


def _branch_counts(tracer):
    c = tracer.counters()
    return (
        c.get("lutkernel.gather.unclamped", 0),
        c.get("lutkernel.gather.clamped", 0),
    )


@requires_kernel
@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_gather_in_bounds_edges_bit_identical(case):
    from repro.obs.trace import tracing

    edit, n_gw, n_gx, lo, hi, fwd_fast, bwd_fast = _EDGE_CASES[case]
    wrow, xq = _edge_operands(edit)
    idx = wrow[:, :, None] + xq[None]
    assert (idx.min(), idx.max()) == (lo, hi)
    rng = np.random.default_rng(3)
    lut = rng.integers(-100, 100, size=_EDGE_N).astype(np.int32)
    gw_flat = rng.standard_normal(n_gw).astype(np.float32)
    gx_flat = rng.standard_normal(n_gx).astype(np.float32)
    gout = rng.standard_normal((6, 700)).astype(np.float32)
    want_f = lut[np.clip(idx, 0, _EDGE_N - 1)].sum(axis=1, dtype=np.int64)
    want_b = execcore._numpy_backward(
        gw_flat, gx_flat, wrow, xq, gout, 96
    )
    fwd_branch = (1, 0) if fwd_fast else (0, 1)
    bwd_branch = (1, 0) if bwd_fast else (0, 1)
    # threads=None reads REPRO_LUTKERNEL_THREADS (CI reruns with 4).
    for threads in (None, 1, 4, 7):
        for acc_dtype in (np.int64, np.int32):
            with tracing() as tr:
                got_f = lutkernel.fused_product_sums(
                    lut, wrow, xq, acc_dtype, threads
                )
                assert _branch_counts(tr) == fwd_branch
            assert got_f.dtype == acc_dtype
            assert np.array_equal(got_f, want_f)
        with tracing() as tr:
            got_b = lutkernel.fused_backward_grads(
                gw_flat, gx_flat, wrow, xq, gout, 96, threads
            )
            assert _branch_counts(tr) == bwd_branch
        assert np.array_equal(got_b[0], want_b[0])
        assert np.array_equal(got_b[1], want_b[1])


@requires_kernel
def test_off_grid_activation_edge_runs_numpy():
    # An activation one below the grid: the C gathers decline it
    # (nothing counted), and the execution core's numpy path clips the
    # flat index -1 like the np.clip reference.
    from repro.obs.trace import tracing

    wrow, xq = _edge_operands(lambda w, x: (w, _with(x, (0, 5), -1)))
    idx = wrow[:, :, None] + xq[None]
    assert idx.min() == -1
    rng = np.random.default_rng(3)
    lut = rng.integers(-100, 100, size=_EDGE_N).astype(np.int32)
    gw_flat = rng.standard_normal(_EDGE_N).astype(np.float32)
    gx_flat = rng.standard_normal(_EDGE_N).astype(np.float32)
    gout = rng.standard_normal((6, 700)).astype(np.float32)
    with tracing() as tr:
        assert lutkernel.fused_product_sums(lut, wrow, xq) is None
        assert lutkernel.fused_backward_grads(
            gw_flat, gx_flat, wrow, xq, gout, 96
        ) is None
        assert _branch_counts(tr) == (0, 0)
    eng = _table_engine(lut, gw_flat, gx_flat)
    wq = wrow // 8
    want_f = lut[np.clip(idx, 0, _EDGE_N - 1)].sum(axis=1, dtype=np.int64)
    assert np.array_equal(execcore.product_sums(eng, wq, xq, np.int64), want_f)
    assert same_bits(
        execcore.backward_grads(eng, wq, xq, gout),
        execcore._numpy_backward(gw_flat, gx_flat, wrow, xq, gout, 96),
    )
    assert eng.ckernel_forward_calls == eng.ckernel_backward_calls == 0


def test_gather_in_bounds_proof_at_its_edges():
    # The pure-Python proof: no kernel needed, so this also runs on the
    # numpy-only CI leg.
    wrow = np.array([[0, 8], [16, 56]], dtype=np.int64)
    xq = np.array([[0, 7], [3, 1]], dtype=np.int32)
    prove = lutkernel._gather_in_bounds
    assert prove(wrow, xq, 64)  # largest index 63 == n - 1
    assert not prove(wrow, xq, 63)  # largest index 63 == n
    assert not prove(wrow - 1, xq, 64)  # smallest index -1
    # Precomputed bounds stand in for the reductions, conservatively.
    assert prove(wrow, xq, 64, wrow_bounds=(0, 56), xq_bounds=(0, 7))
    assert not prove(wrow, xq, 64, xq_bounds=(0, 255))
    assert not prove(wrow, xq, 64, wrow_bounds=(-1, 56))
    # Nothing to gather: vacuously in bounds.
    assert prove(np.zeros((3, 0), np.int64), np.zeros((0, 5), np.int32), 1)


@requires_kernel
def test_self_check_runs_both_gather_branches(restore_backend):
    from repro.obs.trace import tracing

    with tracing() as tr:
        assert execcore._run_self_check()
        unclamped, clamped = _branch_counts(tr)
    # Probes 1-3 hold real operands (fast loop), probe 4 puts weight
    # offsets off both table ends (clamp loop); each runs at 1 and 2
    # threads.
    assert unclamped == 6
    assert clamped == 2


def test_threads_env_parsing(monkeypatch):
    monkeypatch.delenv(lutkernel.THREADS_ENV, raising=False)
    assert lutkernel.threads_requested() == 1
    monkeypatch.setenv(lutkernel.THREADS_ENV, "4")
    assert lutkernel.threads_requested() == 4
    monkeypatch.setenv(lutkernel.THREADS_ENV, "not-a-number")
    assert lutkernel.threads_requested() == 1
    monkeypatch.setenv(lutkernel.THREADS_ENV, "-3")
    assert lutkernel.threads_requested() == 1


# ----------------------------------------------------------------------
# Env-var and compile-cache semantics (run with or without a compiler).
@requires_kernel
def test_no_cckernel_env_honored_per_call(monkeypatch):
    # The env var used to be latched by the first _get_kernel() call;
    # flipping it mid-process must now take effect immediately.
    m, k, c = ODD_SHAPES[0]
    wq, xq, gout = _operands(m, k, c, seed=6)
    eng = LutGemm(MULT, PAIR)
    eng.product_sums(wq, xq)
    assert eng.ckernel_forward_calls == 1
    monkeypatch.setenv("REPRO_NO_CCKERNEL", "1")
    assert not lutkernel.kernel_available()
    eng.product_sums(wq, xq)
    eng.backward_grads(wq, xq, gout, 1, 1)
    assert eng.ckernel_forward_calls == 1  # unchanged: numpy served it
    assert eng.ckernel_backward_calls == 0
    monkeypatch.delenv("REPRO_NO_CCKERNEL")
    assert lutkernel.kernel_available()
    eng.product_sums(wq, xq)
    assert eng.ckernel_forward_calls == 2


def test_failed_compile_attempted_once(monkeypatch, restore_backend):
    attempts = []

    def failing_compile():
        attempts.append(1)
        return None

    monkeypatch.setattr(lutkernel, "_compile", failing_compile)
    monkeypatch.delenv("REPRO_NO_CCKERNEL", raising=False)
    # Many engine constructions + calls (the sweep fork-worker pattern)
    # must spend exactly one build attempt for the whole process.
    for seed in range(3):
        eng = LutGemm(MULT, PAIR)
        wq, xq, gout = _operands(8, 32, 100, seed=seed)
        eng.product_sums(wq, xq)
        eng.backward_grads(wq, xq, gout, 1, 1)
        assert eng.ckernel_forward_calls == 0
    assert len(attempts) == 1
    assert lutkernel.compile_attempted()
    # reset_kernel_cache() grants a fresh attempt (CLI flag / tests).
    lutkernel.reset_kernel_cache()
    assert not lutkernel.compile_attempted()
    assert not lutkernel.kernel_available()
    assert len(attempts) == 2


def test_no_cckernel_does_not_consume_compile_attempt(monkeypatch, restore_backend):
    attempts = []
    monkeypatch.setattr(
        lutkernel, "_compile", lambda: attempts.append(1) or None
    )
    monkeypatch.setenv("REPRO_NO_CCKERNEL", "1")
    assert not lutkernel.kernel_available()
    assert not lutkernel.compile_attempted()
    assert attempts == []


def test_failed_compile_warns_once(monkeypatch, restore_backend, tmp_path):
    # Point the source build at a compiler that always fails: exactly one
    # RuntimeWarning for the whole process, not one per engine.
    import subprocess

    def boom(*args, **kwargs):
        raise subprocess.SubprocessError("simulated compiler failure")

    monkeypatch.setattr(lutkernel.subprocess, "run", boom)
    monkeypatch.setattr(lutkernel, "_cache_dir", lambda: str(tmp_path))
    monkeypatch.setattr(
        lutkernel.shutil, "which", lambda name: "/usr/bin/fake-cc"
    )
    monkeypatch.delenv("REPRO_NO_CCKERNEL", raising=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(4):
            assert lutkernel._get_kernel() is None
    relevant = [w for w in caught if "build failed" in str(w.message)]
    assert len(relevant) == 1


def test_backward_self_check_rejects_wrong_kernel(monkeypatch, restore_backend):
    if not lutkernel.kernel_available():
        pytest.skip("C kernel unavailable")

    real = lutkernel.fused_backward_grads

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        if res is None:
            return None
        gw, gx = res
        gw = gw.copy()
        gw.flat[0] += 1e-3  # one wrong bit pattern is enough
        return gw, gx

    monkeypatch.setattr(lutkernel, "fused_backward_grads", corrupted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not execcore.backward_kernel_trusted()
    assert any("not" in str(w.message) and "bit-identical" in str(w.message)
               for w in caught)
    # Verdict is pinned for the process: no further probing, numpy path.
    assert not execcore.backward_kernel_trusted()
    m, k, c = ODD_SHAPES[0]
    wq, xq, gout = _operands(m, k, c, seed=8)
    acc_ref, gw_ref, gx_ref = _numpy_results(wq, xq, gout, zw=2, zx=2)
    eng = LutGemm(MULT, PAIR)
    acc = eng.product_sums(wq, xq)
    gw, gx = eng.backward_grads(wq, xq, gout, 2, 2)
    assert eng.ckernel_backward_calls == 0
    assert np.array_equal(acc, acc_ref)
    assert np.array_equal(gw, gw_ref)
    assert np.array_equal(gx, gx_ref)


def test_backward_self_check_passes_on_healthy_kernel(restore_backend):
    if not lutkernel.kernel_available():
        pytest.skip("C kernel unavailable")
    assert execcore.backward_kernel_trusted()


# ----------------------------------------------------------------------
# The input-gradient fold: C against its numpy reference.
FOLD_GEOMETRIES = [
    # (n, cin, h, w, kh, kw, stride, pad)
    (2, 3, 6, 6, 3, 3, 1, 1),
    (3, 2, 7, 8, 3, 3, 2, 1),
    (2, 2, 8, 6, 3, 3, 2, 0),
    (4, 1, 5, 5, 1, 1, 2, 0),
    (1, 3, 4, 7, 2, 3, 2, 2),
    (5, 2, 9, 9, 3, 3, 1, 0),
]


def _fold_operands(n, c, h, w, kh, kw, stride, pad, seed=0):
    rng = np.random.default_rng(seed)
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    gx = rng.normal(size=(c * kh * kw, n * oh * ow))
    gx.flat[::9] = -0.0
    zcol = rng.normal(size=n * oh * ow)
    zcol[::4] = 0.0
    mask = rng.random((n, c, h, w)) < 0.75
    return gx, zcol, mask


@requires_kernel
@pytest.mark.parametrize("geom", FOLD_GEOMETRIES)
@pytest.mark.parametrize("threads", [1, 2, 7])
def test_fold_matches_numpy_reference(geom, threads):
    n, c, h, w, kh, kw, stride, pad = geom
    gx, zcol, mask = _fold_operands(*geom)
    want = execcore._numpy_fold(gx, zcol, 0.0173, mask, kh, kw, stride, pad)
    got = lutkernel.fold_input_grad(
        gx, zcol, 0.0173, mask, kh, kw, stride, pad, threads
    )
    assert got.shape == (n, c, h, w) and got.flags.c_contiguous
    assert same_bits((got,), (np.ascontiguousarray(want),))


@requires_kernel
@pytest.mark.parametrize("geom", FOLD_GEOMETRIES)
def test_fold_reads_float32_gx(geom):
    # The LUT backward's float32 gx folds as its exact float64 widening
    # does, on the C fold's float32 body and on the numpy fold.
    n, c, h, w, kh, kw, stride, pad = geom
    gx, zcol, mask = _fold_operands(*geom)
    gx32 = gx.astype(np.float32)
    gx32.flat[1::11] = np.float32(1e-45)
    want = execcore._numpy_fold(
        gx32.astype(np.float64), zcol, 0.0173, mask, kh, kw, stride, pad
    )
    for got in (
        execcore._numpy_fold(gx32, zcol, 0.0173, mask, kh, kw, stride, pad),
        lutkernel.fold_input_grad(
            gx32, zcol, 0.0173, mask, kh, kw, stride, pad, 2
        ),
    ):
        assert same_bits(
            (np.ascontiguousarray(got),), (np.ascontiguousarray(want),)
        )


def test_fold_reference_is_col2im_arithmetic():
    """The numpy fold is the old subtract / divide / mask / col2im chain."""
    from repro.nn import functional as F

    for geom in FOLD_GEOMETRIES:
        n, c, h, w, kh, kw, stride, pad = geom
        gx, zcol, mask = _fold_operands(*geom, seed=1)
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (w + 2 * pad - kw) // stride + 1
        padded = np.pad(mask, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        cmask = F.im2col(padded, kh, kw, stride, 0)  # per-tap pixel mask
        g = gx.copy()
        g -= zcol[None, :]
        cols = (g / 0.0173).reshape(c * kh * kw, n, oh * ow)
        want = F.col2im(
            cols.transpose(1, 0, 2) * cmask, (n, c, h, w), kh, kw, stride,
            pad,
        )
        got = execcore._numpy_fold(gx, zcol, 0.0173, mask, kh, kw, stride, pad)
        assert same_bits(
            (np.ascontiguousarray(got),), (np.ascontiguousarray(want),)
        )


def test_fold_rejects_mismatched_shapes():
    gx, zcol, mask = _fold_operands(*FOLD_GEOMETRIES[0])
    with pytest.raises(ValueError):
        lutkernel.fold_input_grad(gx[:, 1:], zcol[1:], 0.5, mask, 3, 3, 1, 1)
    with pytest.raises(ValueError):
        lutkernel.fold_input_grad(gx, zcol, 0.5, mask, 3, 3, 2, 1)
    # A 9x9 kernel on 6x6 images: OH = OW = -2, whose product would pass
    # a bare shape check.
    with pytest.raises(ValueError):
        lutkernel.fold_input_grad(
            np.zeros((3 * 81, 2 * 4)), np.zeros(2 * 4), 0.5, mask, 9, 9, 1, 0
        )


def test_fold_self_check_failure_pins_numpy(monkeypatch, restore_backend):
    """A wrong C fold fails the backward self-check: one warning, and the
    backward and the fold both run on numpy, with identical results."""
    if not lutkernel.kernel_available():
        pytest.skip("C kernel unavailable")
    real = lutkernel.fold_input_grad

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        if out is not None:
            out.view(np.uint64).flat[0] ^= 1
        return out

    monkeypatch.setattr(lutkernel, "fold_input_grad", corrupted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not execcore.backward_kernel_trusted()
    assert sum("fold" in str(w.message) for w in caught) == 1
    assert execcore.backend_info()["backward_backend"] == "numpy"
    geom = FOLD_GEOMETRIES[1]
    gx, zcol, mask = _fold_operands(*geom)
    got = execcore.fold_input_grad(gx, zcol, 0.25, mask, *geom[4:])
    want = execcore._numpy_fold(gx, zcol, 0.25, mask, *geom[4:])
    assert same_bits(
        (np.ascontiguousarray(got),), (np.ascontiguousarray(want),)
    )


def test_backend_info_reports_consistent_state():
    info = execcore.backend_info()
    assert info["forward_backend"] in ("c", "numpy")
    assert info["backward_backend"] in ("c", "numpy")
    assert info["threads"] >= 1
    if info["forward_backend"] == "numpy":
        assert info["backward_backend"] == "numpy"


def test_reset_backend_state_rechecks_env(monkeypatch):
    if not _KERNEL_OK:
        pytest.skip("C kernel unavailable")
    monkeypatch.setenv("REPRO_NO_CCKERNEL", "1")
    execcore.reset_backend_state()
    assert execcore.backend_info()["forward_backend"] == "numpy"
    monkeypatch.delenv("REPRO_NO_CCKERNEL")
    execcore.reset_backend_state()
    assert execcore.backend_info()["forward_backend"] == "c"


# ----------------------------------------------------------------------
# Shape validation: the raw kernels trust their shapes, so the wrappers
# must reject mismatches before any C call (they used to segfault).
def _bad_shape_calls():
    lut = np.zeros(64, dtype=np.int32)
    tab = np.zeros(64, dtype=np.float32)
    w43 = np.zeros((4, 3), dtype=np.int64)
    x5 = np.zeros((5, 100), dtype=np.int32)
    x3 = np.zeros((3, 100), dtype=np.int32)
    g = np.zeros((4, 100), dtype=np.float32)
    w35 = np.zeros((3, 5), dtype=np.int64)
    x520 = np.zeros((5, 20), dtype=np.int32)
    one = np.ones(1, dtype=np.int64)

    def serve(wrow, xq, acc_dtype=np.int64):
        return lutkernel.serve_tail(
            lut, wrow, xq, np.zeros(xq.shape[-1], np.int64),
            lutkernel.RequantTail(one, one, one, one, 0, 255, len(wrow)),
            acc_dtype,
        )

    def fwd(wrow, xq, acc_dtype=np.int64):
        return lutkernel.fused_product_sums(lut, wrow, xq, acc_dtype)

    def bwd(wrow, xq, gout=g, chunk=64, gw=tab, gx=tab, planes=None):
        return lutkernel.fused_backward_grads(
            gw, gx, wrow, xq, gout, chunk, planes=planes
        )

    empty_f = np.zeros(0, dtype=np.float32)
    return {
        "product_sums_k_mismatch": lambda: fwd(w43, x5),
        "product_sums_1d_wrow": lambda: fwd(np.zeros(3, np.int64), x3),
        "serve_k_mismatch": lambda: serve(w43, x5),
        "serve_3d_xq": lambda: serve(w43, np.zeros((3, 10, 10), np.int32)),
        # An accumulator narrower than int32 used to overrun the C body's
        # int64 scratch row (serving: a heap corruption and abort at
        # (3, 5, 20)); only int32 and int64 rows exist.
        "product_sums_int16_acc": lambda: fwd(w35, x520, np.int16),
        "serve_uint8_acc": lambda: serve(w35, x520, np.uint8),
        "backward_k_mismatch": lambda: bwd(w43, x5),
        "backward_short_gout": lambda: bwd(
            w43, x3, np.zeros((2, 50), np.float32)
        ),
        "backward_1d_gout": lambda: bwd(w43, x3, np.zeros(400, np.float32)),
        # chunk < 1 used to divide by zero (0) or reach numpy's "negative
        # dimensions" (-1); an empty table used to be read out of bounds
        # (the clamp maps every index to -1) and return zeros where
        # np.take raises.
        "backward_chunk_0": lambda: bwd(w43, x3, chunk=0),
        "backward_chunk_negative": lambda: bwd(w43, x3, chunk=-1),
        "backward_empty_gw_table": lambda: bwd(w43, x3, gw=empty_f),
        "backward_empty_gx_table": lambda: bwd(w43, x3, gx=empty_f),
        "product_sums_empty_lut": lambda: lutkernel.fused_product_sums(
            np.zeros(0, np.int32), w43, x3
        ),
        "serve_empty_lut": lambda: lutkernel.serve_tail(
            np.zeros(0, np.int32), w43, x3, np.zeros(100, np.int64),
            lutkernel.RequantTail(one, one, one, one, 0, 255, 4),
        ),
        # The gx table's four planes, not one of them, nor a uint16
        # LUT's two, nor the (gw, gx) pair of planes the backward used
        # to take.
        "backward_one_plane": lambda: bwd(
            w43, x3, planes=lutkernel.byte_planes(tab)[: 64 + 256]
        ),
        "backward_uint16_planes": lambda: bwd(
            w43, x3, planes=lutkernel.byte_planes(lut)
        ),
        "backward_plane_pair": lambda: bwd(
            w43, x3, planes=(lutkernel.byte_planes(tab),) * 2
        ),
    }


@pytest.mark.parametrize("case", list(_bad_shape_calls()))
def test_raw_kernels_reject_mismatched_shapes(case):
    with pytest.raises(ValueError):
        _bad_shape_calls()[case]()


# ----------------------------------------------------------------------
# The forward gathers' two bodies: the in-register AVX-512 VBMI body and
# the scalar loop (forced through the private ``_force_scalar`` switch),
# each bit-identical to numpy.
def _body_counts(tracer):
    c = tracer.counters()
    return c.get("lutkernel.gather.vbmi", 0), c.get("lutkernel.gather.scalar", 0)


def _forward_reference(lut, wrow, xq):
    idx = np.clip(wrow[:, :, None] + xq[None], 0, lut.size - 1)
    return lut[idx].sum(axis=1, dtype=np.int64)


@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
@pytest.mark.parametrize("c", BODY_COLUMNS)
@pytest.mark.parametrize("levels", [256, 128, 64])
def test_forward_bodies_bit_identical(monkeypatch, levels, c, body):
    from repro.obs.trace import tracing

    force_body(monkeypatch, body)
    lut = edge_lut(levels)
    planes = lutkernel.byte_planes(lut)
    wrow, xq = edge_operands(levels, 9, 12, c, seed=c)
    want = _forward_reference(lut, wrow, xq)
    for threads in (1, 4, 7):
        for acc_dtype in (np.int64, np.int32):
            with tracing() as tr:
                got = lutkernel.fused_product_sums(
                    lut, wrow, xq, acc_dtype, threads, planes
                )
                assert _body_counts(tr) == (
                    (1, 0) if runs_vbmi(body, c) else (0, 1)
                )
            assert got.dtype == acc_dtype
            assert np.array_equal(got, want)


@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
@pytest.mark.parametrize("k", [255, 256, 257, 600])
def test_forward_bodies_across_partial_sum_flushes(monkeypatch, k, body):
    # The VBMI body keeps uint16 partial sums for at most 256 steps of K;
    # an all-0xFFFF table puts 256 * 0xFF in every partial before a flush.
    force_body(monkeypatch, body)
    for lut in (np.full(65536, 0xFFFF, dtype=np.int32), edge_lut(256)):
        wrow, xq = edge_operands(256, 5, k, 130, seed=k)
        want = _forward_reference(lut, wrow, xq)
        got = lutkernel.fused_product_sums(
            lut, wrow, xq, np.int32, 2, lutkernel.byte_planes(lut)
        )
        assert np.array_equal(got, want)


@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
def test_forward_bodies_at_the_int32_bound(monkeypatch, body):
    # K = VBMI_MAX_K terms of 0xFFFF: the largest sum the VBMI body
    # admits, 2**31 - 98302, exactly representable in its int32 lanes.
    from repro.obs.trace import tracing

    force_body(monkeypatch, body)
    k = lutkernel.VBMI_MAX_K
    lut = np.full(65536, 0xFFFF, dtype=np.int32)
    rng = np.random.default_rng(2)
    wrow = (rng.integers(0, 256, size=(2, k)) * 256).astype(np.int64)
    xq = rng.integers(0, 256, size=(k, lutkernel.VBMI_MIN_C))
    xq = xq.astype(np.int32)
    with tracing() as tr:
        got = lutkernel.fused_product_sums(
            lut, wrow, xq, np.int32, 1, lutkernel.byte_planes(lut)
        )
        assert _body_counts(tr) == ((1, 0) if body == "vbmi" else (0, 1))
    assert (got == k * 0xFFFF).all() and k * 0xFFFF < 2**31


def _fallback_case(name):
    """``(lut, wrow, xq, planes)`` of a call the VBMI body must refuse."""
    lut = edge_lut(256)
    wrow, xq = edge_operands(256, 4, 6, 70)
    planes = lutkernel.byte_planes(lut)
    if name == "signed_lut":
        lut = lut - 1
        planes = lutkernel.byte_planes(lut)
        assert planes is None
    elif name == "lut_above_uint16":
        lut = lut.copy()
        lut[5] = 0x10000
        planes = lutkernel.byte_planes(lut)
        assert planes is None
    elif name == "shifted_operands":
        # In bounds (the proof bounds the sum), but a row load at
        # wrow = -8 would start before the table.
        wrow, xq = wrow - 8, xq % 248 + 8
        assert wrow.min() == -8 and xq.max() <= 255
    elif name == "xq_above_255":
        # Such an activation never reaches C (_assert_off_grid_runs_numpy);
        # here a weight offset whose row runs past the table's end.
        wrow, xq = wrow.copy(), xq.copy()
        wrow[1, 3], xq[3, 0] = lut.size - 10, 200
    elif name == "failed_proof":
        # A weight offset one below the table.
        wrow, xq = wrow.copy(), xq.copy()
        wrow[1, 2], xq[2, 0] = -1, 0
    elif name == "k_32768":
        rng = np.random.default_rng(1)
        wrow = (rng.integers(0, 256, size=(1, lutkernel.VBMI_MAX_K + 1))
                * 256).astype(np.int64)
        xq = rng.integers(0, 256, size=(wrow.shape[1], lutkernel.VBMI_MIN_C))
        xq = xq.astype(np.int32)
    elif name == "narrow_c":
        # Below the measured crossover the scalar loop is faster.
        wrow, xq = edge_operands(256, 4, 6, lutkernel.VBMI_MIN_C - 1)
    else:
        assert name == "control"
    return lut, wrow, xq, planes


FALLBACKS = ("signed_lut", "lut_above_uint16", "shifted_operands",
             "xq_above_255", "failed_proof", "k_32768", "narrow_c")
#: Cases whose weight offsets leave the table: the proof fails.
CLAMPED = ("xq_above_255", "failed_proof")


def _assert_off_grid_runs_numpy(c, backward=False):
    """An activation above the uint8 grid (300) against the execution
    core: the C gather declines it, and the numpy path gives the np.clip
    reference (the forward) or the numpy backward, bit for bit."""
    lut = edge_lut(256)
    wrow, xq = edge_operands(256, 4, 6, c)
    wrow = wrow % (128 * 256)
    xq = xq.astype(np.int32)
    xq[1, 3] = 300
    wq = wrow // 256
    gout = edge_gout(4, c)
    tables = (edge_grad_table(256), edge_grad_table(256, 1))
    eng = _table_engine(lut, *tables, chunk=64)
    if backward:
        assert lutkernel.fused_backward_grads(
            *tables, wrow, xq, gout, 64
        ) is None
        with np.errstate(invalid="ignore", over="ignore"):
            got = execcore.backward_grads(eng, wq, xq, gout)
            want = execcore._numpy_backward(*tables, wrow, xq, gout, 64)
        assert same_bits(got, want)
        assert eng.ckernel_backward_calls == 0
    else:
        assert lutkernel.fused_product_sums(lut, wrow, xq) is None
        got = execcore.product_sums(eng, wq, xq, np.int64)
        assert np.array_equal(got, _forward_reference(lut, wrow, xq))
        assert eng.ckernel_forward_calls == 0


@requires_kernel
@pytest.mark.parametrize("case", ("control",) + FALLBACKS)
def test_vbmi_fallbacks_take_the_scalar_body(case):
    from repro.obs.trace import tracing

    lut, wrow, xq, planes = _fallback_case(case)
    want = _forward_reference(lut, wrow, xq)
    vbmi = case == "control" and lutkernel.vbmi_trusted()
    with tracing() as tr:
        got = lutkernel.fused_product_sums(lut, wrow, xq, np.int64, 1, planes)
        assert _body_counts(tr) == ((1, 0) if vbmi else (0, 1))
        # Only the offsets off the table fail the proof: every other
        # case is refused by a VBMI-specific condition.
        assert _branch_counts(tr) == ((0, 1) if case in CLAMPED else (1, 0))
    assert np.array_equal(got, want)
    if case == "xq_above_255":
        _assert_off_grid_runs_numpy(xq.shape[1])


@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
@pytest.mark.parametrize("threads", [1, 4, 7])
def test_uint8_operands_match_numpy_by_bits(monkeypatch, threads, body):
    """Every C gather reads the uint8 operand as the numpy references
    do, bit for bit: the forward sums (int64 and int32), the serving op
    and the backward, at widths below and above each body's crossover."""
    force_body(monkeypatch, body)
    lut = edge_lut(256)
    gw_flat, gx_flat = edge_grad_table(256), edge_grad_table(256, 1)
    planes, gx_planes = (lutkernel.byte_planes(t) for t in (lut, gx_flat))
    one = np.ones(1, dtype=np.int64)
    for c in (1, 65, 300):
        wrow, xq = edge_operands(256, 13, 40, c, seed=c)
        assert xq.dtype == np.uint8 and xq.flags.c_contiguous
        for acc_dtype in (np.int64, np.int32):
            want = execcore._numpy_forward(lut, wrow, xq, 96, acc_dtype)
            got = lutkernel.fused_product_sums(
                lut, wrow, xq, acc_dtype, threads, planes
            )
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (c, acc_dtype)
        colsum = xq.sum(axis=0, dtype=np.int64)
        rq = (one, one, one * 0, one * 16, 0, 255)
        want_q = execcore._requant_clamp(want, colsum, *rq)
        got_q = lutkernel.serve_tail(
            lut, wrow, xq, colsum, lutkernel.RequantTail(*rq, 13), np.int32,
            threads, planes=planes,
        )
        assert got_q.tobytes() == want_q.tobytes(), c
        gout = edge_gout(13, c, seed=c)
        with np.errstate(invalid="ignore", over="ignore"):
            want_b = execcore._numpy_backward(
                gw_flat, gx_flat, wrow, xq, gout, 96
            )
            got_b = lutkernel.fused_backward_grads(
                gw_flat, gx_flat, wrow, xq, gout, 96, threads, gx_planes
            )
        assert same_bits(got_b, want_b), c


def test_uint8_operand_passes_through_without_a_copy():
    xq = np.arange(12, dtype=np.uint8).reshape(3, 4)
    ext = (0, 0, 0, 11)
    assert lutkernel._activation_operand(xq, ext) is xq
    # Another integer operand on the grid is narrowed once; one off the
    # grid, or a float one, is declined.
    narrowed = lutkernel._activation_operand(xq.astype(np.int64), ext)
    assert narrowed.dtype == np.uint8 and np.array_equal(narrowed, xq)
    for off in ((0, 0, -1, 11), (0, 0, 0, 256)):
        assert lutkernel._activation_operand(xq.astype(np.int32), off) is None
    assert lutkernel._activation_operand(xq.astype(np.float64), ext) is None
    # A strided uint8 view is made contiguous, still uint8.
    view = lutkernel._activation_operand(xq[:, ::2], ext)
    assert view.flags.c_contiguous and np.array_equal(view, xq[:, ::2])


def test_engine_builds_planes_only_for_uint16_luts():
    from repro.multipliers.base import LutMultiplier

    eng = LutGemm(get_multiplier("mul8u_2NDH"), None)
    assert eng._lut_planes.nbytes == 2 * (65536 + 256)
    assert eng._lut_planes.ctypes.data % 64 == 0
    signed = np.arange(-8, 8).reshape(4, 4)
    assert LutGemm(LutMultiplier("s", 2, signed), None)._lut_planes is None
    wide = np.full((4, 4), 0x10000)
    assert LutGemm(LutMultiplier("w", 2, wide), None)._lut_planes is None


@requires_kernel
def test_vbmi_self_check_passes_and_is_reported(restore_backend):
    if not vbmi_ok():
        pytest.skip(NO_VBMI)
    assert lutkernel.vbmi_trusted()
    assert execcore.backend_info()["gather_isa"] == "avx512vbmi"


def test_gather_isa_scalar_without_vbmi(monkeypatch, restore_backend):
    monkeypatch.setattr(lutkernel, "_force_scalar", True)
    assert not lutkernel.vbmi_trusted()
    assert execcore.backend_info()["gather_isa"] == "scalar"


def test_vbmi_self_check_rejects_wrong_body(monkeypatch, restore_backend):
    from repro.obs.trace import tracing

    if not vbmi_ok():
        pytest.skip(NO_VBMI)
    real = lutkernel.fused_product_sums

    def corrupted(*args):
        out = real(*args)
        if out is not None and len(args) > 5 and args[5] is not None:
            out.flat[0] += 1  # the VBMI body's sums, one off
        return out

    monkeypatch.setattr(lutkernel, "fused_product_sums", corrupted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not lutkernel.vbmi_trusted()
    assert any("VBMI" in str(w.message) for w in caught)
    # Pinned for the process to the scalar C body (not to numpy).
    assert execcore.backend_info()["gather_isa"] == "scalar"
    assert execcore.backend_info()["forward_backend"] == "c"
    monkeypatch.setattr(lutkernel, "fused_product_sums", real)
    mult = get_multiplier("mul8u_2NDH")
    eng = LutGemm(mult, None)
    rng = np.random.default_rng(4)
    wq = rng.integers(0, 256, size=(8, 30))
    xq = rng.integers(0, 256, size=(30, 200)).astype(np.int32)
    with tracing() as tr:
        got = eng.product_sums(wq, xq)
        assert _body_counts(tr) == (0, 1)
        # A direct caller passing planes gets the scalar body too.
        lutkernel.fused_product_sums(
            eng._lut_i32, (wq * 256).astype(np.int64), xq, np.int64, 1,
            eng._lut_planes,
        )
        assert _body_counts(tr) == (0, 2)
    assert eng.ckernel_forward_calls == 1
    assert np.array_equal(
        got, _forward_reference(eng._lut_i32, (wq * 256).astype(np.int64), xq)
    )


@requires_kernel
def test_vbmi_self_check_runs_outside_the_gather_span(restore_backend):
    # The first forward of a process runs the self-check's probe calls,
    # each its own lutkernel.product_sums span; only the forward's own
    # call may sit inside its lutgemm.gather span.
    from repro.obs.trace import tracing

    eng = LutGemm(get_multiplier("mul8u_2NDH"), None)
    rng = np.random.default_rng(5)
    wq = rng.integers(0, 256, size=(8, 30))
    xq = rng.integers(0, 256, size=(30, 200)).astype(np.int32)
    with tracing() as tr:
        eng.product_sums(wq, xq)
        spans = tr.spans()
    (outer,) = [s for s in spans if s.name == "lutgemm.gather"]
    inner = [
        s for s in spans
        if s.name == "lutkernel.product_sums"
        and outer.start <= s.start <= outer.start + outer.dur
    ]
    assert len(inner) == 1
    if vbmi_ok():  # the probe calls ran, before the span
        assert sum(s.name == "lutkernel.product_sums" for s in spans) > 1


@pytest.mark.parametrize(
    "m, c, threads, want",
    [
        # Enough 128-column tiles: threads own column tiles, all rows.
        (9, 1000, 4, [(0, 9, 0, 256), (0, 9, 256, 512), (0, 9, 512, 768),
                      (0, 9, 768, 1000)]),
        # Fewer tiles than threads: row blocks over every column.
        (128, 64, 2, [(0, 64, 0, 64), (64, 128, 0, 64)]),
        (9, 129, 4, [(0, 3, 0, 129), (3, 6, 0, 129), (6, 9, 0, 129)]),
        (5, 300, 1, [(0, 5, 0, 300)]),
    ],
)
def test_vbmi_blocks_use_every_thread(m, c, threads, want):
    blocks, tiles = lutkernel._gather_blocks(m, c, 16, True, threads)
    assert blocks == want
    assert [t.nbytes for t in tiles] == [16 * 128] * len(want)
    scalar, none = lutkernel._gather_blocks(m, c, 16, False, threads)
    assert all(b[2:] == (0, c) for b in scalar) and set(none) == {None}


# ----------------------------------------------------------------------
# The backward's two bodies: the in-register VBMI body (four byte planes
# per float32 gradient table) and the scalar loop, each bit-identical to
# numpy -- compared by bit pattern, so inf and NaN sums count too.
def _backward_case(levels, m, k, c, seed=0):
    gw_flat = edge_grad_table(levels, seed)
    gx_flat = edge_grad_table(levels, seed + 1)
    wrow, xq = edge_operands(levels, m, k, c, seed=seed)
    planes = lutkernel.byte_planes(gx_flat)
    return gw_flat, gx_flat, wrow, xq, edge_gout(m, c, seed), planes


@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
@pytest.mark.parametrize("c", BODY_COLUMNS)
@pytest.mark.parametrize("levels", [256, 128, 64])
def test_backward_bodies_bit_identical(monkeypatch, levels, c, body):
    from repro.obs.trace import tracing

    force_body(monkeypatch, body)
    gw_flat, gx_flat, wrow, xq, gout, planes = _backward_case(
        levels, 9, 12, c, seed=c
    )
    # Chunks 7 and 96 cut a 64-lane block; 1024 holds every width here.
    for chunk in (7, 96, 1024):
        with np.errstate(invalid="ignore", over="ignore"):
            want = execcore._numpy_backward(
                gw_flat, gx_flat, wrow, xq, gout, chunk
            )
        for threads in (1, 4, 7):
            with tracing() as tr, np.errstate(invalid="ignore"):
                got = lutkernel.fused_backward_grads(
                    gw_flat, gx_flat, wrow, xq, gout, chunk, threads, planes
                )
                assert _body_counts(tr) == (
                    (1, 0)
                    if runs_vbmi(body, c, lutkernel.VBMI_BWD_MIN_C)
                    else (0, 1)
                )
            assert same_bits(got, want), (chunk, threads)


@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
def test_backward_bodies_on_full_chunks(monkeypatch, body):
    # Whole chunks of 256 to 1024 columns (pairwise sums recursing to
    # 2-8 leaves of 128), several per call, plus a 5-column tail chunk.
    force_body(monkeypatch, body)
    gw_flat, gx_flat, wrow, xq, gout, planes = _backward_case(
        256, 3, 4, 2053, seed=9
    )
    for chunk in (256, 512, 1024):
        with np.errstate(invalid="ignore", over="ignore"):
            want = execcore._numpy_backward(
                gw_flat, gx_flat, wrow, xq, gout, chunk
            )
            got = lutkernel.fused_backward_grads(
                gw_flat, gx_flat, wrow, xq, gout, chunk, 2, planes
            )
        assert same_bits(got, want), chunk


# The VBMI body sums gw with its lanes over rows (16-row blocks, T and gT
# tiles) and gx with its lanes over columns: row counts around 16,
# chunks around the pairwise leaf (128 columns) and its recursion.
@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
@pytest.mark.parametrize("m", [1, 15, 16, 17, 33])
@pytest.mark.parametrize("levels", [256, 128, 64])
def test_backward_bodies_over_row_blocks(monkeypatch, levels, m, body):
    from repro.obs.trace import tracing

    force_body(monkeypatch, body)
    gw_flat, gx_flat, wrow, xq, gout, planes = _backward_case(
        levels, m, 5, 1100, seed=m
    )
    for chunk in (7, 96, 128, 129, 256, 1000, 1024):
        with np.errstate(invalid="ignore", over="ignore"):
            want = execcore._numpy_backward(
                gw_flat, gx_flat, wrow, xq, gout, chunk
            )
        for threads in (1, 4, 7):
            with tracing() as tr, np.errstate(invalid="ignore"):
                got = lutkernel.fused_backward_grads(
                    gw_flat, gx_flat, wrow, xq, gout, chunk, threads, planes
                )
                assert _body_counts(tr) == (
                    (1, 0) if body == "vbmi" else (0, 1)
                )
            assert same_bits(got, want), (chunk, threads)


@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
def test_backward_bodies_sum_negative_zero_products(monkeypatch, body):
    # All products -0.0 (a positive table times a gout of -0.0): each
    # chunk sum follows the pairwise recursion, -0.0 over 8 or more
    # columns and +0.0 over fewer (a sum of under 8 starts from +0.0),
    # and the merge into +0.0 gives numpy's +0.0 either way.
    force_body(monkeypatch, body)
    rng = np.random.default_rng(5)
    gw_flat = rng.random(256 * 256, dtype=np.float32) + 0.5
    gx_flat = edge_grad_table(256, 1)
    wrow, xq = edge_operands(256, 17, 3, 1000)
    gout = np.full((17, 1000), -0.0, dtype=np.float32)
    planes = lutkernel.byte_planes(gx_flat)
    for chunk, tail in ((8, 8), (129, 97), (1000, 1000), (96, 40), (7, 6),
                        (999, 1)):
        parts, _ = lutkernel._backward_parts(
            lutkernel._get_kernel(), gw_flat, gx_flat, wrow, xq, gout,
            chunk, 2, planes, None, False,
        )
        assert np.signbit(parts[:-1]).all() == (chunk >= 8), chunk
        assert np.signbit(parts[-1]).all() == (tail >= 8), chunk
        want = execcore._numpy_backward(
            gw_flat, gx_flat, wrow, xq, gout, chunk
        )
        got = lutkernel.fused_backward_grads(
            gw_flat, gx_flat, wrow, xq, gout, chunk, 2, planes
        )
        assert same_bits(got, want), chunk
        assert not np.signbit(got[0]).any()


@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
def test_backward_bodies_skip_gx_when_not_needed(monkeypatch, body):
    from repro.obs.trace import tracing

    force_body(monkeypatch, body)
    gw_flat, gx_flat, wrow, xq, gout, planes = _backward_case(
        256, 17, 6, 300, seed=4
    )
    for chunk, threads in ((96, 1), (129, 4), (1024, 2)):
        want = lutkernel.fused_backward_grads(
            gw_flat, gx_flat, wrow, xq, gout, chunk, threads, planes
        )
        with tracing() as tr:
            got = lutkernel.fused_backward_grads(
                gw_flat, gx_flat, wrow, xq, gout, chunk, threads, planes,
                need_gx=False,
            )
            assert _body_counts(tr) == ((1, 0) if body == "vbmi" else (0, 1))
        assert got[1] is None
        assert same_bits(got[:1], want[:1]), (chunk, threads)


# gx is float32, written in place at row stride C: odd K (the gw sum's
# unpaired last k), M % 16 != 0, and C = 1000 cut by chunk and thread
# boundaries mid-block.
@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
@pytest.mark.parametrize("m, k", [(17, 1), (9, 145), (33, 6)])
def test_backward_bodies_float32_gx_over_odd_k(monkeypatch, m, k, body):
    from repro.obs.trace import tracing

    force_body(monkeypatch, body)
    gw_flat, gx_flat, wrow, xq, gout, planes = _backward_case(
        256, m, k, 1000, seed=k
    )
    for chunk in (7, 96, 1000, 1024):
        with np.errstate(invalid="ignore", over="ignore"):
            want = execcore._numpy_backward(
                gw_flat, gx_flat, wrow, xq, gout, chunk
            )
        assert want[1].dtype == np.float32
        for threads in (1, 4, 7):
            with tracing() as tr, np.errstate(invalid="ignore"):
                got = lutkernel.fused_backward_grads(
                    gw_flat, gx_flat, wrow, xq, gout, chunk, threads, planes
                )
                assert _body_counts(tr) == (
                    (1, 0) if body == "vbmi" else (0, 1)
                )
            assert got[0].dtype == np.float64
            assert got[1].dtype == np.float32
            assert same_bits(got, want), (chunk, threads)


#: The canary around ``gx`` in the column-range test: -0.0, which a
#: stray ``table * 0.0`` store turns into +0.0 or NaN.
_CANARY_BITS = 0x80000000


def _backward_range(body, case, chunk, lo, hi):
    """One ``backward_grads_range`` call over the columns ``[lo, hi)``,
    writing ``gx`` into the first K rows of a (K + 1, C) canary buffer;
    returns the buffer."""
    gw_flat, gx_flat, wrow, xq, gout, planes = case
    lib = lutkernel._get_kernel()
    (m, k), c = wrow.shape, xq.shape[1]
    buf = np.full((k + 1, c), _CANARY_BITS, dtype=np.uint32).view(np.float32)
    gw_part = np.zeros((-(-c // chunk), m, k), dtype=np.float32)
    # Scratch as large as either body needs: the scalar loop's product
    # row, or two T tiles and a gT tile; and the narrowed index row.
    tmp = lutkernel._aligned_empty(4 * 16 * (512 + chunk + 16))
    tmp = tmp.view(np.float32)
    xt = lutkernel._aligned_empty(chunk + 64)
    with np.errstate(invalid="ignore"):
        lib.backward_grads_range(
            gw_flat, gw_flat.size, gx_flat, gx_flat.size, wrow, xq, gout,
            gw_part, buf.ctypes.data, tmp, m, k, c, chunk, lo, hi, 1,
            int(xq.max()), planes.ctypes.data if body == "vbmi" else None,
            xt.ctypes.data,
        )
    return buf


@requires_kernel
@pytest.mark.parametrize("body", ["vbmi", "scalar"])
@pytest.mark.parametrize("chunk", [7, 96, 1000, 1024])
def test_backward_bodies_write_only_their_columns(body, chunk):
    # A call (one thread's share) over chunk-aligned columns [lo, hi)
    # writes gx there and nowhere else: a partial 64-lane block at a
    # chunk's end, a thread boundary or a row's end stores under a mask,
    # so every other column, and the row after the last, keeps the canary.
    if body == "vbmi" and not vbmi_ok():
        pytest.skip(NO_VBMI)
    c = 1000
    case = _backward_case(256, 17, 5, c, seed=chunk)
    with np.errstate(invalid="ignore", over="ignore"):
        want = execcore._numpy_backward(*case[:5], chunk)[1]
    n_chunks = -(-c // chunk)
    for lo_chunk, hi_chunk in ((0, 1), (1, 3), (n_chunks - 1, n_chunks),
                               (0, n_chunks)):
        lo, hi = lo_chunk * chunk, min(hi_chunk * chunk, c)
        if lo >= hi:
            continue
        buf = _backward_range(body, case, chunk, lo, hi)
        gx = buf[:-1]
        assert same_bits((gx[:, lo:hi],), (want[:, lo:hi],)), (lo, hi)
        bits = buf.view(np.uint32)
        outside = np.ones(bits.shape, dtype=bool)
        outside[:-1, lo:hi] = False
        assert np.all(bits[outside] == _CANARY_BITS), (lo, hi)


#: Runs in a subprocess: a levels-128 table flush against a PROT_NONE
#: page, where ``max(wrow) + 255`` runs past the table's end, so a gw
#: tile row past ``max(xq)`` faults instead of reading a neighbour.
_GUARD_PAGE_SCRIPT = r"""
import ctypes, mmap
import numpy as np
from repro.core import execcore, lutkernel
from repro.obs.trace import tracing
from tests.gather_bodies import (
    edge_grad_table, edge_gout, edge_operands, same_bits,
)

libc = ctypes.CDLL(None, use_errno=True)
libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
keep = []

def guarded(table):
    page = mmap.PAGESIZE
    span = -(-table.nbytes // page) * page
    buf = mmap.mmap(-1, span + page)
    base = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    assert libc.mprotect(base + span, page, 0) == 0  # PROT_NONE
    out = np.frombuffer(buf, dtype=np.float32, count=table.size,
                        offset=span - table.nbytes)
    out[:] = table
    keep.append(buf)
    return out

levels = 128
gw_flat = guarded(edge_grad_table(levels))
gx_flat = guarded(edge_grad_table(levels, 1))
wrow, xq = edge_operands(levels, 17, 9, 300)
assert wrow.max() + 255 >= gw_flat.size
assert wrow.max() + xq.max() == gw_flat.size - 1
gout = edge_gout(17, 300)
planes = lutkernel.byte_planes(gx_flat)
assert lutkernel.vbmi_trusted()
for chunk, threads in ((64, 1), (129, 2), (1024, 1)):
    with np.errstate(invalid="ignore", over="ignore"):
        want = execcore._numpy_backward(
            gw_flat, gx_flat, wrow, xq, gout, chunk
        )
        with tracing() as tr:
            got = lutkernel.fused_backward_grads(
                gw_flat, gx_flat, wrow, xq, gout, chunk, threads, planes
            )
            assert tr.counters().get("lutkernel.gather.vbmi") == 1
    assert same_bits(got, want), chunk
print("guarded ok")
"""


@requires_kernel
def test_backward_bodies_read_no_tile_row_past_max_xq():
    import subprocess
    import sys
    from pathlib import Path

    if not vbmi_ok():
        pytest.skip(NO_VBMI)
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD_PAGE_SCRIPT],
        cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    assert "guarded ok" in proc.stdout


def _backward_fallback_case(name, monkeypatch):
    """``(wrow, xq)`` of a backward call, after arranging case ``name``."""
    wrow, xq = edge_operands(256, 4, 6, lutkernel.VBMI_BWD_MIN_C + 6)
    if name == "failed_proof":
        # A weight offset one below the tables.
        wrow, xq = wrow.copy(), xq.copy()
        wrow[1, 2], xq[2, 0] = -1, 0
    elif name == "negative_wrow":
        # In bounds, but a row load at wrow = -8 starts before the table.
        wrow, xq = wrow - 8, xq % 248 + 8
    elif name == "xq_above_255":
        # Such an activation never reaches C (_assert_off_grid_runs_numpy);
        # here a weight offset whose row runs past the tables' end.
        wrow, xq = wrow.copy(), xq.copy()
        wrow[1, 3], xq[3, 0] = 65536 - 10, 200
    elif name == "narrow_c":
        # Below the backward's own measured crossover.
        wrow, xq = edge_operands(256, 4, 6, lutkernel.VBMI_BWD_MIN_C - 1)
    elif name == "force_scalar":
        monkeypatch.setattr(lutkernel, "_force_scalar", True)
    elif name == "k_32768":
        # The forward's int32 bound on K does not apply to float sums.
        rng = np.random.default_rng(3)
        k = lutkernel.VBMI_MAX_K + 1
        wrow = (rng.integers(0, 256, size=(1, k)) * 256).astype(np.int64)
        xq = rng.integers(0, 256, size=(k, lutkernel.VBMI_BWD_MIN_C))
        xq = xq.astype(np.int32)
    else:
        assert name == "control"
    return wrow, xq


@requires_kernel
@pytest.mark.parametrize(
    "case",
    ("control", "k_32768", "failed_proof", "negative_wrow", "xq_above_255",
     "narrow_c", "force_scalar"),
)
def test_backward_vbmi_fallbacks_take_the_scalar_body(monkeypatch, case):
    from repro.obs.trace import tracing

    gw_flat, gx_flat = edge_grad_table(256), edge_grad_table(256, 1)
    planes = lutkernel.byte_planes(gx_flat)
    wrow, xq = _backward_fallback_case(case, monkeypatch)
    gout = edge_gout(wrow.shape[0], xq.shape[1])
    with np.errstate(invalid="ignore", over="ignore"):
        want = execcore._numpy_backward(
            gw_flat, gx_flat, wrow, xq, gout, 64
        )
    vbmi = case in ("control", "k_32768") and lutkernel.vbmi_trusted()
    with tracing() as tr, np.errstate(invalid="ignore"):
        got = lutkernel.fused_backward_grads(
            gw_flat, gx_flat, wrow, xq, gout, 64, 1, planes
        )
        assert _body_counts(tr) == ((1, 0) if vbmi else (0, 1))
        assert _branch_counts(tr) == ((0, 1) if case in CLAMPED else (1, 0))
    assert same_bits(got, want)
    if case == "xq_above_255":
        _assert_off_grid_runs_numpy(xq.shape[1], backward=True)


def test_engine_builds_grad_planes_on_first_use():
    mult = get_multiplier("mul8u_2NDH")
    assert LutGemm(mult, None)._grad_planes is None
    train = LutGemm(mult, gradient_luts(mult, "difference", hws=2))
    # Lazy: engines that never run a C backward (calibration, serving
    # set-up) hold no gradient planes.
    assert train._grad_planes is None
    planes = train._grad_byte_planes()
    assert planes is train._grad_byte_planes()
    # Only the gx table's: the VBMI body sums gw from the table itself.
    assert planes.nbytes == 4 * (65536 + 256)
    assert planes.ctypes.data % 64 == 0
    # Plane p holds byte p of each entry's bit pattern.
    stacked = planes.reshape(4, -1)[:, :65536].astype(np.uint32)
    rebuilt = sum(stacked[p] << (8 * p) for p in range(4))
    assert np.array_equal(rebuilt, train.grad_x_flat.view(np.uint32))


@requires_kernel
def test_vbmi_self_check_rejects_wrong_backward_body(
    monkeypatch, restore_backend
):
    from repro.obs.trace import tracing

    if not vbmi_ok():
        pytest.skip(NO_VBMI)
    real = lutkernel.fused_backward_grads

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        if out is not None and len(args) > 7 and args[7] is not None:
            out[1].view(np.uint32).flat[0] ^= 1  # one ulp, NaN or not
        return out

    monkeypatch.setattr(lutkernel, "fused_backward_grads", corrupted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert not lutkernel.vbmi_trusted()
        info = execcore.backend_info()
    assert sum("VBMI" in str(w.message) for w in caught) == 1
    # One verdict pins every body to its scalar C loop, not to numpy.
    assert info["gather_isa"] == "scalar"
    assert info["forward_backend"] == "c"
    assert info["backward_backend"] == "c"
    monkeypatch.setattr(lutkernel, "fused_backward_grads", real)
    wq, xq, gout = _operands(8, 32, 100)
    zw, zx = np.int32(3), np.int32(5)
    eng = LutGemm(MULT, PAIR)
    with tracing() as tr:
        eng.product_sums(wq, xq)
        got = eng.backward_grads(wq, xq, gout, zw, zx)
        assert _body_counts(tr) == (0, 2)
    assert eng.ckernel_forward_calls == eng.ckernel_backward_calls == 1
    _, gw_np, gx_np = _numpy_results(wq, xq, gout, zw, zx)
    assert same_bits(got, (gw_np, gx_np))

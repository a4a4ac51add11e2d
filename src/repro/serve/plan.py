"""Inference plan compiler: Module graph -> tape-free op list.

:func:`compile_plan` walks a (calibrated, frozen) model and emits an
:class:`InferencePlan`: an ordered list of closures over raw numpy arrays.
No :class:`~repro.autograd.tensor.Tensor` tape is recorded, no gradient
LUTs are touched, and every input-independent quantity (quantized weights,
Eq. 8 zero-point corrections, BN eval-mode scale/shift) is precomputed once
at compile time via :class:`repro.nn.approx.FrozenAffine`.

Two lowering modes:

- ``arithmetic="float"`` (default): every op replicates the eval-mode
  float operations of the training graph in the same order, so plan
  outputs are **bit-identical** to ``model.eval()(Tensor(x)).data`` -- the
  property the serve tests and ``benchmarks/bench_serve.py`` assert.

- ``arithmetic="int"``: the deployment arithmetic the paper's AppMult
  accelerators assume.  Runs of approximate layers compile into an
  *integer core*: one ``quant`` op maps the float input onto the first
  layer's uint8 grid, each LUT-GEMM emits an int32/int64 accumulator
  (``lutgemm_int``), and a fixed-point ``requant`` op (``M0`` multiply +
  rounding right shift + saturating cast, see :mod:`repro.nn.requant`)
  lands it directly on the *next* approximate layer's uint8 grid -- no
  float tensor anywhere until an exact ``dequant``.  ReLU becomes
  ``max(q, Z)``, max pooling and reshapes pass uint8 through unchanged,
  and a BatchNorm directly after a gather folds into the requant
  constants; all three commute exactly with monotone quantization.  Ops
  that do not commute (average pooling, global average pooling, plain
  float layers, a non-adjacent BN, a residual join) close the region
  with an exact integer dequant and the plan falls back to float until
  the next approximate layer.  :func:`assert_integer_core` is the
  plan-walk gate for "no float op after the input quant".

  By default integer plans are additionally run through
  :func:`fuse_integer_plan`: every LUT layer's gather and the ops that
  finish it become one ``fused_int`` op -- ``lutgemm_int -> requant [->
  relu]`` ends in the requant tail (uint8 out), ``lutgemm_int ->
  dequant [-> bn] [-> relu | join]`` in the float tail (float64 out) --
  executed in a single :func:`repro.core.execcore.serve_fused` call (one
  C loop; numpy fallback bit-identical).  See ``docs/serving.md`` for
  the fusion rules.

Residual blocks compile inline as ``save``/``branch``/``join`` ops (see
:func:`_compile_residual`), so fusion and per-op profilers see every
layer of one flat op list.

Supported modules: all :mod:`repro.nn.layers` leaves, the approximate
layers, and the model-zoo blocks (residual ``BasicBlock``/``Bottleneck``,
MobileNet ``SeparableBlock``).  Composite modules without a registered
handler are compiled by walking their children in definition order (correct
for every linear-pipeline model in :mod:`repro.models`); pass
``example_input`` to verify the compiled plan against the training graph
when compiling an architecture the compiler has not seen before.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.lutkernel import FloatTail, RequantTail
from repro.errors import PlanShapeError, ServeError
from repro.nn import functional as F
from repro.nn.approx import (
    ApproxConv2d,
    ApproxLinear,
    FrozenAffine,
    im2col_int,
)
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.module import Module
from repro.nn.quant import QuantParams, compute_requant, quant_dtype
from repro.nn.requant import RequantParams, requantize
from repro.obs.trace import get_tracer

_TRACE = get_tracer()

#: Canonical dtype tag of the float domain.
FLOAT = "float64"


class PlanOp:
    """One compiled step: a named closure ``(ndarray) -> ndarray``.

    The residual-block kinds ``save``/``branch`` (``fn`` is ``None``) are
    dispatched by :func:`_execute`.  An op with ``residual`` set -- a
    ``join``, or a fused op that absorbed one -- is called ``fn(main,
    short)`` with the block's shortcut output.

    ``dtype_in``/``dtype_out`` tag the tensor domain each op consumes and
    produces (``"float64"``, ``"uint8"``, ``"int64"`` ...), so traces,
    :meth:`InferencePlan.describe`, and the integer-core plan walk can
    show exactly where the pipeline is integer and where float runs.

    ``params`` carries the compile-time constant object behind the
    closure when one exists -- the :class:`~repro.nn.approx.FrozenAffine`
    of a LUT-GEMM op, the :class:`~repro.nn.requant.RequantParams` of a
    requant op, the :class:`_FusedIntFn` of a fused op -- so post-compile
    passes and tests can reach the underlying arrays.

    ``meta`` is a small dict of compile-time facts later passes need but
    the closure hides (conv geometry on a ``lutgemm_int`` op, the integer
    ReLU's clamp zero point, an eval BatchNorm's constants):
    :func:`fuse_integer_plan` reads it to rebuild fusable op runs without
    re-walking the model.
    """

    __slots__ = ("name", "kind", "fn", "dtype_in", "dtype_out", "params",
                 "meta", "residual")

    def __init__(
        self,
        name: str,
        kind: str,
        fn: Callable[..., np.ndarray] | None,
        dtype_in: str = FLOAT,
        dtype_out: str = FLOAT,
        params=None,
        meta: dict | None = None,
        residual: bool = False,
    ):
        self.name = name
        self.kind = kind
        self.fn = fn
        self.dtype_in = dtype_in
        self.dtype_out = dtype_out
        self.params = params
        self.meta = meta
        self.residual = residual

    def __repr__(self) -> str:
        return (
            f"PlanOp({self.name!r}, kind={self.kind!r}, "
            f"{self.dtype_in}->{self.dtype_out})"
        )


class InferencePlan:
    """An ordered, tape-free op list compiled from a frozen model."""

    def __init__(
        self, ops: list[PlanOp], model_name: str = "", arithmetic: str = "float"
    ):
        self.ops = ops
        self.model_name = model_name
        self.arithmetic = arithmetic

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the plan on a batch; returns the output array."""
        return _execute(self.ops, x)

    __call__ = run

    @property
    def lutgemm_ops(self) -> int:
        """Number of LUT-GEMM (approximate) ops in the plan."""
        return sum(
            1
            for op in self.ops
            if op.kind in ("lutgemm", "lutgemm_int", "fused_int")
        )

    @property
    def fused_ops(self) -> int:
        """Number of fused ops in the plan: a gather with its requant
        tail (uint8 out) or its float tail (float64 out)."""
        return sum(1 for op in self.ops if op.kind == "fused_int")

    @property
    def separable_ops(self) -> int:
        """Number of LUT-GEMM ops served by the rank-1 matmul lowering."""
        return sum(1 for op in self.ops if _separable_op(op))

    def integer_core(self) -> tuple[int, int] | None:
        """Op-index span ``(first quant, first float output)``, or ``None``.

        The core ends at the first op after the input quant whose output
        is float: an unfused plan's ``dequant``, or a fused op's float
        tail.
        """
        ops = self.ops
        start = next((i for i, op in enumerate(ops) if op.kind == "quant"),
                     None)
        if start is None:
            return None
        end = next((i for i in range(start + 1, len(ops))
                    if "float" in ops[i].dtype_out), None)
        return None if end is None else (start, end)

    def op_summary(self) -> dict:
        """JSON-friendly per-op-kind/dtype counts (``/metrics`` plan info).

        ``fused_ops`` counts both tails: a ``uint8->uint8`` fused op
        requantizes, a ``uint8->float64`` one ends in the float tail.
        """
        kinds: dict[str, int] = {}
        dtypes: dict[str, int] = {}
        for op in self.ops:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
            key = f"{op.dtype_in}->{op.dtype_out}"
            dtypes[key] = dtypes.get(key, 0) + 1
        from repro.core import execcore

        backend = execcore.backend_info()
        return {
            "model": self.model_name,
            "arithmetic": self.arithmetic,
            "ops": len(self.ops),
            "lutgemm_ops": self.lutgemm_ops,
            "fused_ops": self.fused_ops,
            # LUT-GEMM ops lowered to one exact float64 matmul over the
            # rank-1 factors of a product-separable LUT (no gather).
            "separable_ops": self.separable_ops,
            "kinds": kinds,
            "dtypes": dtypes,
            "integer_only_core": integer_core_report(self)["integer_only"],
            # Shared-execution-core backend the LUT-GEMM ops lower onto
            # (the same core the training tape uses; "numpy" when no C
            # compiler is available or REPRO_NO_CCKERNEL is set).
            "gemm_backend": backend["forward_backend"],
            # Backend of the fused serving ops, both tails ("numpy" also
            # when the serving self-check refused the C kernel on this
            # platform).
            "serve_backend": backend["serve_backend"],
            "gemm_threads": backend["threads"],
        }

    def describe(self) -> str:
        """Numbered op listing for logs and ``repro serve`` startup.

        Each line shows the op's kind, name and dtypes: a fused op named
        ``...+requant[+relu]`` is ``uint8 -> uint8``, one named
        ``...+dequant[+bn][+relu|+join]`` is ``uint8 -> float64``.
        """
        from repro.core import execcore

        backend = execcore.backend_info()
        fused = (
            f", {self.fused_ops} fused "
            f"[{backend['serve_backend']} serve backend]"
            if self.fused_ops
            else ""
        )
        separable = (
            f", {self.separable_ops} separable" if self.separable_ops else ""
        )
        header = (
            f"InferencePlan({self.model_name or 'model'}, "
            f"{self.arithmetic}): "
            f"{len(self.ops)} ops, {self.lutgemm_ops} LUT-GEMM "
            f"[{backend['forward_backend']} backend]{fused}{separable}"
        )
        lines = [header] + [
            f"  {i:3d}. [{op.kind}] {op.name}  "
            f"({op.dtype_in} -> {op.dtype_out})"
            + ("  [separable]" if _separable_op(op) else "")
            for i, op in enumerate(self.ops)
        ]
        return "\n".join(lines)


def _execute(ops: list[PlanOp], x: np.ndarray) -> np.ndarray:
    """Run ``ops`` on ``x``; the executor of every plan.

    A residual block runs its shortcut first: ``save`` pushes the block
    input, the shortcut ops run on it, ``branch`` swaps the shortcut
    result for the saved input, and the main path's ``residual`` op (the
    ``join``, or the fused op that absorbed it) pops the shortcut into
    ``fn(main, short)``.  Dispatch is on ``kind`` and ``residual``
    (profilers wrap ``fn``); the stack is local.
    """
    out = np.asarray(x, dtype=np.float64)
    saved: list[np.ndarray] = []
    for op in ops:
        if op.kind == "save":
            saved.append(out)
        elif op.kind == "branch":
            out, saved[-1] = saved[-1], out
        elif op.residual:
            out = op.fn(out, saved.pop())
        else:
            out = op.fn(out)
    return out


def _separable_op(op: PlanOp) -> bool:
    """Whether a LUT-GEMM op lowers to the rank-1 matmul, not the gather.

    Fused ops decide at compile time; other LUT-GEMM ops decide per
    call, and take the matmul whenever their activations lie on the
    layer's grid -- which plan inputs always do.
    """
    if op.kind == "fused_int":
        return op.params.separable
    if op.kind in ("lutgemm", "lutgemm_int"):
        return op.params.engine.separable_for(op.params.wq)
    return False


def integer_core_report(plan: InferencePlan) -> dict:
    """Plan-walk report of the float ops an integer plan keeps.

    Returns a dict with ``has_core`` (the input quant is followed by an
    op with a float output: :meth:`InferencePlan.integer_core`),
    ``span`` (that op-index pair), ``float_ops`` (names of every op after
    the input quant that computes on a float input: float fallback
    regions, the ``quant`` of each residual block, pools and float heads
    after the last LUT layer, and an unfused plan's BN and ``join`` ops;
    the structural ``save`` / ``branch`` are not named), and
    ``integer_only`` (core exists and no op stays float: the plan is
    integer from its input quant to its output).
    """
    core = plan.integer_core()
    if core is None:
        return {
            "has_core": False,
            "integer_only": False,
            "float_ops": [],
            "span": None,
        }
    start, end = core
    float_ops = [
        op.name
        for op in plan.ops[start + 1 :]
        if op.fn is not None and "float" in op.dtype_in
    ]
    return {
        "has_core": True,
        "integer_only": not float_ops,
        "float_ops": float_ops,
        "span": (start, end),
    }


def assert_integer_core(plan: InferencePlan) -> None:
    """Assert no op computes on a float tensor after the input quant.

    The acceptance gate of the integer lowering: raises
    :class:`ServeError` naming every op that stays float
    (:func:`integer_core_report`), or when the plan has no integer core
    at all.
    """
    report = integer_core_report(plan)
    if not report["has_core"]:
        raise ServeError(
            f"plan {plan.model_name!r} has no quant -> float integer core"
        )
    if report["float_ops"]:
        raise ServeError(
            f"float ops after the input quant of plan "
            f"{plan.model_name!r}: {', '.join(report['float_ops'])}"
        )


# ----------------------------------------------------------------------
# Compile context: mutable state threaded through the module walk.
# ----------------------------------------------------------------------
def _unresolved(x):
    raise ServeError(
        "internal error: unresolved placeholder op executed; the compile "
        "walk must resolve every pending requantization before returning"
    )


#: Sentinel ``fn`` marking ops deleted at compile end (e.g. a folded BN).
_REMOVED = object()


def _float_relu(x):
    # Matches Tensor.relu: multiply by the bool mask.
    return x * (x > 0)


def _int_relu_fn(z):
    def fn(x):
        return np.maximum(x, z)

    return fn


def _chan(arr, m: int, extra: int):
    """(M,) constants as a (1, M, 1...) float64 broadcast view."""
    return np.asarray(arr, dtype=np.float64).reshape((1, m) + (1,) * extra)


def _chan_or_scalar(v, m: int, extra: int):
    arr = np.ravel(np.asarray(v, dtype=np.float64))
    if arr.size == 1:
        return float(arr[0])
    return arr.reshape((1, m) + (1,) * extra)


def _make_requant_fn(rp) -> Callable[[np.ndarray], np.ndarray]:
    """The requant op closure over constants ``rp`` (a RequantParams)."""

    def fn(acc, _rp=rp):
        with _TRACE.span("serve.requant", cat="serve"):
            return requantize(acc, _rp, channel_axis=1)

    return fn


class _FusedIntFn:
    """Callable body of a ``fused_int`` op: one C loop per LUT-GEMM layer.

    Replaces a ``lutgemm_int -> requant [-> int relu]`` or ``lutgemm_int
    -> dequant [-> bn] [-> relu | join]`` op run with a single call into
    :func:`repro.core.execcore.serve_fused`: gather, weight-zero-point
    correction and the run's tail execute in one loop while the
    accumulator row stays in cache.  ``tail`` is a
    :class:`~repro.core.lutkernel.RequantTail` (uint8 out: a quarter of
    the unfused int64 traffic) or a
    :class:`~repro.core.lutkernel.FloatTail` (float64 out; with a
    residual it takes the block's shortcut as second argument).  Both
    are built once, at compile time.  Either (M, C) result is viewed as
    an image exactly as the unfused op's is, so later ops see the same
    memory order.

    The instance doubles as the op's ``params``: ``engine`` is the
    LUT-GEMM engine it gathers through and ``tail`` the constants of the
    ops it absorbed.

    The lowering is chosen once, at compile time: when the engine's LUT
    is product-separable and the frozen weights pass
    :meth:`~repro.core.lutgemm.LutGemm.separable_for`, ``wrow`` holds the
    float64 factor rows ``a[wq]`` (same size as the int64 gather
    offsets it replaces) and ``separable`` is set; ``serve_fused`` then
    runs the exact matmul instead of the gather.
    """

    __slots__ = ("fa", "engine", "tail", "spatial", "kh", "kw", "stride",
                 "pad", "zx", "acc_dtype", "wrow", "wrow_bounds",
                 "separable")

    def __init__(self, fa: FrozenAffine, tail, meta: dict):
        self.fa = fa
        self.engine = fa.engine
        self.tail = tail
        self.spatial = meta["spatial"]
        if self.spatial:
            self.kh = meta["kh"]
            self.kw = meta["kw"]
            self.stride = meta["stride"]
            self.pad = meta["pad"]
            self.zx = meta["zx"]
        else:
            self.kh = self.kw = self.stride = self.pad = self.zx = None
        self.acc_dtype = meta["acc_dtype"]
        # Input-independent weight operand, built once per compile.
        self.separable = self.engine.separable_for(fa.wq)
        if self.separable:
            self.wrow = np.ascontiguousarray(
                np.take(self.engine._sep_f64[0], fa.wq)
            )
            self.wrow_bounds = None
        else:
            self.wrow = np.ascontiguousarray(
                (fa.wq * self.engine.levels).astype(np.int64)
            )
            # Feeds the kernel's in-bounds proof (no-clamp gather); the
            # weights are frozen, so the extrema never change.
            self.wrow_bounds = (
                (int(self.wrow.min()), int(self.wrow.max()))
                if self.wrow.size
                else None
            )

    def _gemm(self, xq, xq_bounds, colsum=None, resid=None):
        from repro.core import execcore

        return execcore.serve_fused(
            self.engine, self.fa.wq, self.wrow, xq, self.tail,
            self.acc_dtype, wrow_bounds=self.wrow_bounds,
            xq_bounds=xq_bounds, colsum=colsum, resid=resid,
        )

    def __call__(self, x: np.ndarray, short=None) -> np.ndarray:
        m = self.fa.m
        # Plan inputs to a fused op are uint8 activations (and the
        # im2col pad value is the uint8 zero point), so the gather
        # indices are in bounds by construction -- no per-call scan.
        xqb = (0, 0xFF) if x.dtype == np.uint8 else None
        with _TRACE.span("serve.fused_int", cat="serve"):
            if not self.spatial:
                q = self._gemm(np.ascontiguousarray(x.T), xqb)
                return np.ascontiguousarray(q.T)  # (N, M)
            n, c, h, w = x.shape
            oh, ow = F.conv_output_size(
                h, w, self.kh, self.kw, self.stride, self.pad
            )
            with _TRACE.span("serve.im2col", cat="serve"):
                xq, colsum = im2col_int(
                    x, self.kh, self.kw, self.stride, self.pad, self.zx
                )
            if short is not None:
                # The shortcut in the (M, C) order the tail reads: a view
                # of a fused op's output, copied only from another layout.
                short = short.reshape(n, m, oh * ow).transpose(1, 0, 2)
                short = short.reshape(m, n * oh * ow)
            # (M, C) sums' tail -> the unfused op's image-shaped view, so
            # later BLAS calls and reductions see the same memory order.
            return (
                self._gemm(xq, xqb, colsum, short)
                .reshape(m, n, oh * ow)
                .transpose(1, 0, 2)
                .reshape(n, m, oh, ow)
            )


def _match_tail(ops: list[PlanOp], i: int):
    """The fusable run starting at the ``lutgemm_int`` op ``ops[i]``.

    Returns ``(tail, end, suffix, residual)`` -- the run is ``ops[i:end]``
    -- or ``None`` when ``ops[i]`` starts none.  A requant run is
    ``requant [-> int relu]`` with uint8 requant constants; a float run
    is ``dequant [-> bn] [-> relu | join]``, where the BN and the join
    must follow a conv (the BN's constants in ``meta["bn"]``) and the
    ReLU be the float one.
    """
    op = ops[i]
    if op.kind != "lutgemm_int" or op.meta is None or i + 1 >= len(ops):
        return None
    fa, nxt = op.params, ops[i + 1]
    at = lambda j: ops[j] if j < len(ops) else None  # noqa: E731
    if (
        nxt.kind == "requant"
        and isinstance(nxt.params, RequantParams)
        and nxt.params.out_dtype() == np.uint8
    ):
        relu = at(i + 2)
        relu_z = None
        if relu is not None and relu.kind == "act" and relu.meta is not None:
            relu_z = relu.meta.get("relu_z")
        rp = nxt.params
        # max(q, Z) over a [qmin, qmax] clip folds to a raised lower rail
        # (Z >= qmin on a zero-including grid).
        qlo = rp.qmin if relu_z is None else max(rp.qmin, relu_z)
        tail = RequantTail(fa.zw_int, rp.m0, rp.d0, rp.shift, qlo, rp.qmax,
                           fa.m)
        end = i + 2 + (relu_z is not None)
        suffix = "+requant+relu" if relu_z is not None else "+requant"
        return tail, end, suffix, False
    if nxt.kind != "dequant":
        return None
    j, suffix, bn = i + 2, "+dequant", None
    cand = at(j)
    if (
        op.meta["spatial"]
        and cand is not None
        and cand.kind == "float"
        and cand.meta is not None
        and "bn" in cand.meta
    ):
        bn, j, suffix = cand.meta["bn"], j + 1, suffix + "+bn"
    cand = at(j)
    relu = residual = False
    if cand is not None and cand.kind == "act" and cand.fn is _float_relu:
        relu, j, suffix = True, j + 1, suffix + "+relu"
    elif op.meta["spatial"] and cand is not None and cand.kind == "join":
        relu = residual = True
        j, suffix = j + 1, suffix + "+join"
    # The constants resolve_to_float's dequant closure reads, as float64.
    tail = FloatTail(fa.zw_int, fa.w_corr, fa.const_corr, fa.scale, fa.bias,
                     bn, residual, relu)
    return tail, j, suffix, residual


def fuse_integer_plan(plan: InferencePlan) -> int:
    """Fuse each LUT layer's gather with the ops that finish it, in place.

    The plan-fusion pass of the integer pipeline: each run matched by
    :func:`_match_tail` is replaced by one ``fused_int``
    :class:`PlanOp` whose :class:`_FusedIntFn` body executes it in a
    single :func:`repro.core.execcore.serve_fused` call.  Returns the
    number of fused ops created.

    Two tails.  ``lutgemm_int -> requant [-> int relu]`` (the next layer
    is approximate) fuses into the requant tail, ``uint8 -> uint8``: the
    requant constants must be a :class:`~repro.nn.requant.RequantParams`
    block targeting a uint8 grid (the C kernel's output width), and the
    optional act op an integer ReLU (tagged with its clamp ``relu_z``).
    ``lutgemm_int -> dequant [-> bn] [-> relu | join]`` (the output
    leaves the integer grid) fuses into the float tail, ``uint8 ->
    float64``: the exact dequant, the eval BatchNorm, and the float ReLU
    or the residual join (add the popped shortcut, then ReLU; the op
    gets ``residual`` set).  A run only fuses when the gather op carries
    its geometry ``meta`` (compiled by this module's handlers); a
    pool/reshape between the requant or dequant and the ReLU leaves the
    ReLU standalone.  Fused plans are bit-identical to unfused ones on
    both execution backends.
    """
    ops = plan.ops
    new_ops: list[PlanOp] = []
    created = 0
    i = 0
    while i < len(ops):
        match = _match_tail(ops, i)
        if match is None:
            new_ops.append(ops[i])
            i += 1
            continue
        tail, end, suffix, residual = match
        fn = _FusedIntFn(ops[i].params, tail, ops[i].meta)
        out_dtype = "uint8" if isinstance(tail, RequantTail) else FLOAT
        new_ops.append(
            PlanOp(
                f"{ops[i].name}{suffix}", "fused_int", fn, "uint8", out_dtype,
                params=fn, meta={"fused": [o.name for o in ops[i:end]]},
                residual=residual,
            )
        )
        created += 1
        i = end
    plan.ops = new_ops
    return created


class _PendingRequant:
    """An open integer region awaiting its requantization target.

    Created right after an integer LUT-GEMM gather: the accumulator's fate
    is not known until the walk reaches the next module -- another
    approximate layer (requantize straight onto its input grid) or
    anything else (exact float dequant).  The requant op and every
    commuting op emitted in between are mutable placeholders patched in
    place by :meth:`resolve_to_int` / :meth:`resolve_to_float`;
    ``compile_plan`` finalizes all regions before the plan escapes, so an
    unresolved placeholder can never run.
    """

    def __init__(self, name: str, fa: FrozenAffine, op: PlanOp, spatial: bool):
        self.name = name
        self.fa = fa
        self.op = op  # placeholder: becomes "requant" or "dequant"
        self.spatial = spatial  # conv (N, M, OH, OW) layout vs linear (N, M)
        # A BatchNorm folds into the requant constants only when it is
        # directly adjacent to the gather (ReLU/pool in between do not
        # commute with the affine for negative BN slopes).
        self.can_fold_bn = spatial
        self.bn: tuple | None = None  # (gain, shift, float_fn, bn_op)
        self.relus: list[PlanOp] = []
        self.passthrough: list[PlanOp] = []
        self.acc_abs_max = fa.acc_abs_bound()

    def fold_bn(self, gain, shift, float_fn, op: PlanOp) -> None:
        self.bn = (gain, shift, float_fn, op)
        self.can_fold_bn = False

    def _affine_constants(self):
        """``y = m_real * A + d_real`` per output channel, in real units.

        ``A`` is the :meth:`FrozenAffine.gather_int` accumulator; the
        constants fold the Eq. 8 per-channel corrections, the bias, and
        any adjacent BatchNorm.
        """
        fa = self.fa
        scale = np.ravel(np.asarray(fa.scale, dtype=np.float64))
        const = np.ravel(np.asarray(fa.const_corr, dtype=np.float64))
        w_corr = fa.w_corr.astype(np.float64)  # (M,)
        c0 = scale * (const - w_corr)
        if fa.bias is not None:
            c0 = c0 + fa.bias
        if self.bn is not None:
            gain, shift, _fn, _op = self.bn
            return scale * gain, c0 * gain + shift
        return scale, c0

    def resolve_to_int(self, qp: QuantParams) -> None:
        """Requantize the accumulator straight onto grid ``qp``."""
        m_real, d_real = self._affine_constants()
        rp = compute_requant(m_real, d_real, qp, self.acc_abs_max)
        op = self.op
        op.fn = _make_requant_fn(rp)
        op.name = f"{self.name}.requant"
        op.kind = "requant"
        op.dtype_out = str(rp.out_dtype())
        op.params = rp
        if self.bn is not None:
            self.bn[3].fn = _REMOVED  # folded into (m0, d0)
        qd = str(rp.out_dtype())
        z = rp.out_dtype().type(qp.zero_point)
        for r in self.relus:
            # relu commutes with monotone quantization: Q(max(y, 0)) ==
            # max(Q(y), Z) because Q(0) == Z exactly (zero-including grid).
            r.fn = _int_relu_fn(z)
            r.kind = "act"
            r.dtype_in = r.dtype_out = qd
            # The clamp value, visible to the fusion pass (max(q, Z) over
            # a [qmin, qmax] clip folds to a raised lower rail).
            r.meta = {"relu_z": int(qp.zero_point)}
        for p in self.passthrough:
            # windowed max / reshape keep their dtype-polymorphic fn.
            p.dtype_in = p.dtype_out = qd

    def resolve_to_float(self) -> None:
        """Close the region with the exact float dequantization.

        Element-for-element the same value sequence as
        :meth:`FrozenAffine.apply`'s dequant (every intermediate is an
        integer-valued float64 below 2**53, so the regrouped correction
        order is exact), keeping fallback plans bit-identical to the
        float-mode plan.
        """
        fa = self.fa
        extra = 2 if self.spatial else 0
        w_corr = _chan(fa.w_corr, fa.m, extra)
        const_corr = _chan_or_scalar(fa.const_corr, fa.m, extra)
        scale = _chan_or_scalar(fa.scale, fa.m, extra)
        bias = None if fa.bias is None else _chan(fa.bias, fa.m, extra)

        def fn(acc):
            with _TRACE.span("serve.dequantize", cat="serve"):
                y = acc.astype(np.float64)
                y -= w_corr
                y += const_corr
                y *= scale
                if bias is not None:
                    y = y + bias
            return y

        op = self.op
        op.fn = fn
        op.name = f"{self.name}.dequant"
        op.kind = "dequant"
        op.dtype_out = FLOAT
        if self.bn is not None:
            _gain, _shift, float_fn, bn_op = self.bn
            bn_op.fn = float_fn
            bn_op.kind = "float"
            bn_op.dtype_in = bn_op.dtype_out = FLOAT
        for r in self.relus:
            r.fn = _float_relu
            r.kind = "act"
            r.dtype_in = r.dtype_out = FLOAT
        for p in self.passthrough:
            p.dtype_in = p.dtype_out = FLOAT


class _CompileCtx:
    """Mutable compile-walk state: op list + the open integer region."""

    def __init__(self, integer: bool):
        self.ops: list[PlanOp] = []
        self.integer = integer
        self.pending: _PendingRequant | None = None

    # -- region management ---------------------------------------------
    def resolve_float(self) -> None:
        if self.pending is not None:
            self.pending.resolve_to_float()
            self.pending = None

    def open_region(self, name: str, fa: FrozenAffine, spatial: bool) -> None:
        dtype_out = str(quant_dtype(fa.x_qparams.bits))
        op = PlanOp(f"{name}.out", "pending", _unresolved, "int64", dtype_out)
        self.ops.append(op)
        self.pending = _PendingRequant(name, fa, op, spatial)

    # -- op emission ----------------------------------------------------
    def append_float(self, op: PlanOp) -> None:
        """Emit a float-domain op, closing any open integer region first."""
        self.resolve_float()
        self.ops.append(op)

    def emit_relu(self, name: str) -> None:
        if self.pending is not None:
            qd = self.pending.op.dtype_out
            op = PlanOp(name, "pending", _unresolved, qd, qd)
            self.ops.append(op)
            self.pending.relus.append(op)
            self.pending.can_fold_bn = False
        else:
            self.ops.append(PlanOp(name, "act", _float_relu))

    def emit_passthrough(self, name: str, kind: str, fn) -> None:
        """Emit a dtype-polymorphic op (windowed max, reshape).

        These commute exactly with monotone quantization, so inside an
        open integer region the same closure runs on the uint8 tensor.
        """
        if self.pending is not None:
            qd = self.pending.op.dtype_out
            op = PlanOp(name, kind, fn, qd, qd)
            self.ops.append(op)
            self.pending.passthrough.append(op)
            self.pending.can_fold_bn = False
        else:
            self.ops.append(PlanOp(name, kind, fn))


# ----------------------------------------------------------------------
# Per-module compilation handlers.
_COMPILERS: dict[type, Callable] = {}


def register_compiler(module_type: type):
    """Register a compile handler for ``module_type`` (extension point).

    Handlers have signature ``(module, ctx, prefix)`` where ``ctx`` is the
    compile context; emit float-domain ops with ``ctx.append_float`` so an
    open integer region is closed correctly first.  All handlers emit into
    one flat op list, so post-compile passes see every op.
    """

    def deco(fn):
        _COMPILERS[module_type] = fn
        return fn

    return deco


def _compile_into(module: Module, ctx: _CompileCtx, prefix: str) -> None:
    for klass in type(module).__mro__:
        handler = _COMPILERS.get(klass)
        if handler is not None:
            handler(module, ctx, prefix)
            return
    # Composite fallback: children execute in definition order.  Every
    # linear-pipeline model (LeNet, VGG, MobileNet, ResNet top level)
    # satisfies this; blocks with non-linear dataflow need a registered
    # handler (see BasicBlock/Bottleneck below).
    children = list(module._children())
    if not children:
        raise ServeError(
            f"cannot compile {type(module).__name__} at {prefix or '<root>'}: "
            "no handler registered and no children to recurse into"
        )
    for name, child in children:
        _compile_into(child, ctx, f"{prefix}{name}.")


@register_compiler(Sequential)
def _compile_sequential(module, ctx, prefix):
    for i, step in enumerate(module.steps):
        _compile_into(step, ctx, f"{prefix}{i}.")


@register_compiler(Identity)
@register_compiler(Dropout)
def _compile_identity(module, ctx, prefix):
    pass  # no-op, Dropout in eval mode too (keeps any open region open)


@register_compiler(ReLU)
def _compile_relu(module, ctx, prefix):
    ctx.emit_relu(f"{prefix}relu")


@register_compiler(Flatten)
def _compile_flatten(module, ctx, prefix):
    # reshape(-1) cannot infer the flattened width when the batch is empty,
    # so compute it explicitly: zero-row micro-batches must flow through.
    ctx.emit_passthrough(
        f"{prefix}flatten",
        "shape",
        lambda x: x.reshape((x.shape[0], int(np.prod(x.shape[1:], dtype=np.int64)))),
    )


def _pool_patches(x, kernel, stride, oh, ow):
    n, c = x.shape[:2]
    sn, sc, sh, sw = x.strides
    return as_strided(
        x,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def _max_pool(x, kernel, stride):
    """Max over the ``kernel x kernel`` windows of ``(N, C, H, W)``.

    The selected value equals the tape's argmax/take_along_axis pick, so
    a direct windowed max is bit-identical (and much cheaper).
    Dtype-polymorphic: max commutes with monotone quantization, so the
    same op serves the uint8 integer region.  Integer activations take a
    running ``np.maximum`` over the ``kernel**2`` strided views (exact
    in any order; ~17x faster than the windowed reduce on a b1 uint8
    pool).  Float ones keep the windowed reduce: which of ``+0.0`` and
    ``-0.0`` a window of zeros returns depends on numpy's reduction
    order, which a running maximum does not repeat.  Both return a C
    contiguous array, like the tape's pick: a later flatten then feeds a
    BLAS matmul the memory order it rounds by in the training graph (a
    conv output's channel-major view, pooled to 1x1, would not).
    """
    n, c, h, w = x.shape
    oh, ow = F.conv_output_size(h, w, kernel, kernel, stride, 0)
    if x.dtype.kind not in "iu":
        return np.ascontiguousarray(
            _pool_patches(x, kernel, stride, oh, ow).max(axis=(-1, -2))
        )
    out = None
    for i in range(kernel):
        for j in range(kernel):
            tap = x[:, :, i : i + stride * oh : stride,
                    j : j + stride * ow : stride]
            if out is None:
                out = tap.copy()
            else:
                np.maximum(out, tap, out=out)
    return out


@register_compiler(MaxPool2d)
def _compile_maxpool(module, ctx, prefix):
    kernel = module.kernel_size
    stride = module.stride or kernel
    ctx.emit_passthrough(
        f"{prefix}maxpool{kernel}", "pool",
        lambda x: _max_pool(x, kernel, stride),
    )


@register_compiler(AvgPool2d)
def _compile_avgpool(module, ctx, prefix):
    kernel = module.kernel_size
    stride = module.stride or kernel

    def fn(x):
        n, c, h, w = x.shape
        oh, ow = F.conv_output_size(h, w, kernel, kernel, stride, 0)
        return _pool_patches(x, kernel, stride, oh, ow).mean(axis=(-1, -2))

    # Averaging does not commute with quantization: float fallback op.
    ctx.append_float(PlanOp(f"{prefix}avgpool{kernel}", "pool", fn))


@register_compiler(GlobalAvgPool2d)
def _compile_gap(module, ctx, prefix):
    # F.gap2d is the shared sum * (1/HW) expression Tensor.mean lowers to;
    # a division-based mean here would drift bitwise (regression-tested
    # with a crafted HW).  Not integer-commuting: float fallback op.
    ctx.append_float(PlanOp(f"{prefix}gap", "pool", lambda x: F.gap2d(x)))


@register_compiler(BatchNorm2d)
def _compile_batchnorm(module, ctx, prefix):
    # Eval-mode BN with running statistics, frozen at compile time.
    mean = module.running_mean.copy().reshape(1, -1, 1, 1)
    inv_std = (1.0 / np.sqrt(module.running_var + module.eps)).reshape(1, -1, 1, 1)
    gamma = module.gamma.data.copy().reshape(1, -1, 1, 1)
    beta = module.beta.data.copy().reshape(1, -1, 1, 1)

    def fn(x):
        return ((x - mean) * inv_std) * gamma + beta

    # The float tail of a fused op replays fn from these constants.
    meta = {"bn": (mean, inv_std, gamma, beta)}
    pending = ctx.pending
    if (
        pending is not None
        and pending.can_fold_bn
        and mean.size == pending.fa.m
    ):
        # Directly adjacent to the gather: the affine folds into the
        # fixed-point (M0, D0) constants.  If the region later falls back
        # to float, this placeholder becomes the exact float BN instead.
        op = PlanOp(f"{prefix}bn", "pending", _unresolved, "uint8", "uint8",
                    meta=meta)
        ctx.ops.append(op)
        pending.fold_bn(
            gain=(inv_std * gamma).ravel(),
            shift=(beta - mean * inv_std * gamma).ravel(),
            float_fn=fn,
            op=op,
        )
    else:
        ctx.append_float(PlanOp(f"{prefix}bn", "float", fn, meta=meta))


@register_compiler(Conv2d)
def _compile_conv2d(module, ctx, prefix):
    kh = kw = module.kernel_size
    stride, pad = module.stride, module.padding
    oc = module.out_channels
    wmat = module.weight.data.copy().reshape(oc, -1)
    bias = None if module.bias is None else module.bias.data.copy()

    def fn(x):
        n, c, h, w = x.shape
        oh, ow = F.conv_output_size(h, w, kh, kw, stride, pad)
        cols = F.im2col(x, kh, kw, stride, pad)
        out = np.matmul(wmat, cols)
        if bias is not None:
            out = out + bias.reshape(1, oc, 1)
        return out.reshape(n, oc, oh, ow)

    ctx.append_float(PlanOp(f"{prefix}conv{kh}x{kw}", "float", fn))


@register_compiler(DepthwiseConv2d)
def _compile_depthwise(module, ctx, prefix):
    kh = kw = module.kernel_size
    stride, pad = module.stride, module.padding
    ch = module.channels
    wmat = module.weight.data.copy().reshape(ch, kh * kw)
    bias = None if module.bias is None else module.bias.data.copy()

    def fn(x):
        n, c, h, w = x.shape
        oh, ow = F.conv_output_size(h, w, kh, kw, stride, pad)
        cols = F.im2col(x, kh, kw, stride, pad).reshape(n, c, kh * kw, oh * ow)
        out = np.einsum("cj,ncjl->ncl", wmat, cols)
        if bias is not None:
            out = out + bias.reshape(1, c, 1)
        return out.reshape(n, c, oh, ow)

    # Depthwise convs are never approximated (no LUT layer exists for
    # them), so they always run in the float domain.
    ctx.append_float(PlanOp(f"{prefix}dwconv{kh}x{kw}", "float", fn))


@register_compiler(Linear)
def _compile_linear(module, ctx, prefix):
    weight = module.weight.data.copy()
    bias = None if module.bias is None else module.bias.data.copy()

    def fn(x):
        out = x @ weight.T
        if bias is not None:
            out = out + bias
        return out

    ctx.append_float(PlanOp(f"{prefix}linear", "float", fn))


# ----------------------------------------------------------------------
# Approximate layers: float lowering + the integer-core lowering.
# ----------------------------------------------------------------------
def _make_quant_op(name: str, qp: QuantParams) -> PlanOp:
    scale, zp = qp.scale, qp.zero_point
    qmin, qmax = qp.qmin, qp.qmax
    out_dtype = quant_dtype(qp.bits)

    def fn(x):
        # Exactly FrozenAffine.apply's quantize sequence (same float ops,
        # same order), so the integer core sees identical grid values.
        with _TRACE.span("serve.quantize", cat="serve"):
            buf = x / scale
            buf += zp
            np.rint(buf, out=buf)
            np.clip(buf, qmin, qmax, out=buf)
            return buf.astype(out_dtype)

    return PlanOp(name, "quant", fn, FLOAT, str(out_dtype))


def _begin_integer_region(ctx: _CompileCtx, prefix: str, fa: FrozenAffine):
    """Land the input on ``fa``'s uint8 grid: requantize the previous
    region's accumulator straight onto it, or quantize the float tensor."""
    qp = fa.x_qparams
    if ctx.pending is not None:
        ctx.pending.resolve_to_int(qp)
        ctx.pending = None
    else:
        ctx.ops.append(_make_quant_op(f"{prefix}quant", qp))


@register_compiler(ApproxConv2d)
def _compile_approx_conv(module, ctx, prefix):
    fa = module.frozen_affine()
    kh = kw = module.kernel_size
    stride, pad = module.stride, module.padding
    name = f"{prefix}approx_conv{kh}x{kw}[{module.multiplier.name}]"

    if ctx.integer:
        _begin_integer_region(ctx, prefix, fa)
        zx = fa.x_qparams.zero_point
        acc_dtype = np.int32 if fa.engine.int32_acc_safe(fa.k) else np.int64

        def int_fn(xq_img):  # uint8 (N, C, H, W) on fa's input grid
            n, c, h, w = xq_img.shape
            oh, ow = F.conv_output_size(h, w, kh, kw, stride, pad)
            with _TRACE.span("serve.int_gather", cat="serve"):
                xq, colsum = im2col_int(xq_img, kh, kw, stride, pad, zx)
                acc = fa.gather_int(xq, acc_dtype, colsum)
            return (
                acc.reshape(fa.m, n, oh * ow)
                .transpose(1, 0, 2)
                .reshape(n, fa.m, oh, ow)
            )

        ctx.ops.append(
            PlanOp(
                name, "lutgemm_int", int_fn, "uint8", "int64", params=fa,
                # Geometry the fusion pass needs to rebuild this gather
                # fused with its requant (the closure hides it).
                meta={
                    "spatial": True, "kh": kh, "kw": kw, "stride": stride,
                    "pad": pad, "zx": zx, "acc_dtype": acc_dtype,
                },
            )
        )
        ctx.open_region(name, fa, spatial=True)
        return

    def fn(x):
        n, c, h, w = x.shape
        oh, ow = F.conv_output_size(h, w, kh, kw, stride, pad)
        cols = F.im2col(x, kh, kw, stride, pad)
        return fa.apply(cols).reshape(n, fa.m, oh, ow)

    ctx.append_float(PlanOp(name, "lutgemm", fn, params=fa))


@register_compiler(ApproxLinear)
def _compile_approx_linear(module, ctx, prefix):
    fa = module.frozen_affine()
    in_features = module.in_features
    name = f"{prefix}approx_linear[{module.multiplier.name}]"

    if ctx.integer:
        _begin_integer_region(ctx, prefix, fa)
        acc_dtype = np.int32 if fa.engine.int32_acc_safe(fa.k) else np.int64

        def int_fn(xq2):  # uint8 (N, K) on fa's input grid
            with _TRACE.span("serve.int_gather", cat="serve"):
                xq = np.ascontiguousarray(xq2.T)
                acc = fa.gather_int(xq, acc_dtype)
            return np.ascontiguousarray(acc.T)  # (N, M) int64

        ctx.ops.append(
            PlanOp(
                name, "lutgemm_int", int_fn, "uint8", "int64", params=fa,
                meta={"spatial": False, "acc_dtype": acc_dtype},
            )
        )
        ctx.open_region(name, fa, spatial=False)
        return

    def fn(x):
        n = x.shape[0]
        cols = x.reshape(n, in_features, 1)
        return fa.apply(cols).reshape(n, fa.m)

    ctx.append_float(PlanOp(name, "lutgemm", fn, params=fa))


def _join(main, short):
    return _float_relu(main + short)  # the blocks' (out + shortcut(x)).relu()


def _compile_residual(module, ctx, prefix, main_attrs):
    """Inline block: ``save``, shortcut, ``branch``, main path, ``join``.

    All three are float ops, so the paths' integer regions close before
    the join: the residual add needs both paths on the float grid.  The
    shortcut (a conv + BN, or nothing for an identity) runs first, so the
    main path's last op sits right before the ``join``: its gather, the
    exact dequant, the BN and the join (``_join(main, short)``, the
    shortcut popped by the executor) fuse into one float-tail op
    (:func:`fuse_integer_plan`).
    """
    ctx.append_float(PlanOp(f"{prefix}save", "save", None))
    _compile_into(module.shortcut, ctx, f"{prefix}shortcut.")
    ctx.append_float(PlanOp(f"{prefix}branch", "branch", None))
    for attr, with_relu in main_attrs:
        _compile_into(getattr(module, attr), ctx, f"{prefix}{attr}.")
        if with_relu:
            ctx.emit_relu(f"{prefix}{attr}.relu")
    ctx.append_float(PlanOp(f"{prefix}join", "join", _join, residual=True))


def _compile_separable(module, ctx, prefix):
    for attr in ("depthwise", "bn1"):
        _compile_into(getattr(module, attr), ctx, f"{prefix}{attr}.")
    ctx.emit_relu(f"{prefix}relu1")
    for attr in ("pointwise", "bn2"):
        _compile_into(getattr(module, attr), ctx, f"{prefix}{attr}.")
    ctx.emit_relu(f"{prefix}relu2")


def _register_model_blocks() -> None:
    """Handlers for model-zoo blocks whose forward is not child-order."""
    from repro.models.mobilenet import SeparableBlock
    from repro.models.resnet import BasicBlock, Bottleneck

    _COMPILERS[SeparableBlock] = _compile_separable
    _COMPILERS[BasicBlock] = lambda m, ctx, p: _compile_residual(
        m, ctx, p,
        [("conv1", False), ("bn1", True), ("conv2", False), ("bn2", False)],
    )
    _COMPILERS[Bottleneck] = lambda m, ctx, p: _compile_residual(
        m, ctx, p,
        [("conv1", False), ("bn1", True), ("conv2", False), ("bn2", True),
         ("conv3", False), ("bn3", False)],
    )


_register_model_blocks()


# ----------------------------------------------------------------------
def compile_plan(
    model: Module,
    example_input: np.ndarray | None = None,
    arithmetic: str = "float",
    fuse: bool | None = None,
) -> InferencePlan:
    """Compile ``model`` into a tape-free :class:`InferencePlan`.

    Approximate layers must have frozen quantization (calibrated + frozen,
    or restored from a checkpoint).  The plan snapshots all weights and
    quantization state: recompile after any parameter update.  Residual
    blocks compile inline, so fusion reaches the layers inside them.
    Plans run over the shared, read-only engines and keep no per-run
    state, so one plan may run on any number of threads at once.

    Args:
        model: The (frozen) model to compile.
        example_input: Optional batch; when given, the compiled plan is run
            on it and verified bit-identical against the eval-mode training
            graph (raises :class:`ServeError` on any mismatch).
        arithmetic: ``"float"`` replicates the eval-mode float graph
            bit-for-bit; ``"int"`` lowers runs of approximate layers to the
            fixed-point integer core (see the module docstring).  Integer
            plans produce the same final outputs (exact dequant; the only
            approximation is the ``~2**-shift`` fixed-point residual of
            each internal requantization, below one output quantum).
        fuse: Run :func:`fuse_integer_plan` on the compiled plan, merging
            ``lutgemm_int -> requant [-> relu]`` runs into single
            ``fused_int`` ops (bit-identical, faster).  Default ``None``
            fuses exactly when ``arithmetic == "int"``; pass ``False``
            for the unfused op-per-step plan (debugging, benchmarking
            the fusion itself).
    """
    if arithmetic not in ("float", "int"):
        raise ServeError(
            f"unknown arithmetic {arithmetic!r} (expected 'float' or 'int')"
        )
    ctx = _CompileCtx(arithmetic == "int")
    _compile_into(model, ctx, "")
    ctx.resolve_float()  # the model output is float
    ops = [op for op in ctx.ops if op.fn is not _REMOVED]
    if not ops:
        raise ServeError("model compiled to an empty plan")
    plan = InferencePlan(
        ops, model_name=type(model).__name__, arithmetic=arithmetic
    )
    if fuse is None:
        fuse = arithmetic == "int"
    if fuse:
        fuse_integer_plan(plan)
    if example_input is not None:
        verify_plan(plan, model, example_input)
    return plan


def verify_plan(
    plan: InferencePlan, model: Module, x: np.ndarray
) -> np.ndarray:
    """Assert ``plan`` matches the eval-mode training graph on ``x``.

    Returns the (shared) output array on success.  Raises
    :class:`PlanShapeError` (naming the producing op and both shapes) when
    the output shapes disagree -- previously this surfaced as a silent
    ``max |delta| = nan`` -- and :class:`ServeError` with the worst
    absolute deviation on a value mismatch.
    """
    from repro.autograd.tensor import Tensor, no_grad

    x = np.asarray(x, dtype=np.float64)
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            ref = model(Tensor(x)).data
    finally:
        if was_training:
            model.train()
    got = _execute(plan.ops, x)
    if ref.shape != got.shape:
        raise PlanShapeError(
            op_name=plan.ops[-1].name if plan.ops else "<input>",
            ref_shape=ref.shape,
            plan_shape=got.shape,
            model=plan.model_name,
        )
    if not np.array_equal(ref, got):
        diff = float(np.max(np.abs(ref - got)))
        raise ServeError(
            f"compiled plan diverges from the training graph: "
            f"max |delta| = {diff:.3e}"
        )
    return got

"""Fixed-point requantization: ``M0``/``shift`` integer rescaling.

Deployment arithmetic for AppMult accelerators is integer end-to-end: the
int32/int64 LUT-GEMM accumulator must be mapped onto the next layer's
quantized grid without touching float.  This module implements the
standard fixed-point recipe (gemmlowp / the ``QuantizedLinear`` /
``QuantizedConv2d`` reference in the PerClusterQuantization repo): the
real-valued requantization multiplier ``M`` and additive offset ``D`` are
approximated by integers

    M ~= M0 * 2**-shift        D ~= D0 * 2**-shift

and one output value is computed entirely in int64 as::

    q = clip(rounding_right_shift(acc * M0 + D0, shift), qmin, qmax)

``D0`` folds *everything* input-independent into one fixed-point constant:
the Eq. 8 ``n*z1*z2`` and ``sum_w * z_x`` zero-point corrections, the
layer bias, an optionally fused BatchNorm affine, and the target grid's
zero point.  Folding the bias at ``2**-shift`` resolution (instead of the
coarser ``1/(s_w s_x)`` accumulator grid) is what keeps the integer plan
bit-identical to the float-scale plan in practice: the representation
error is ``~2**-shift`` of one output quantum rather than a substantial
fraction of it.

Rounding conventions (the single normative statement for the repo)
------------------------------------------------------------------
* **Quantization (Eq. 7)** -- ``quantize_array`` / ``quantize_per_channel``
  and the compiled plans' input-quant ops use :func:`numpy.rint`:
  round-half-to-**even** (banker's rounding).  Both quantize paths share
  this convention and are pinned together by tie-value tests.
* **Fixed-point requantization** -- :func:`rounding_right_shift` rounds
  half **up** (ties toward ``+inf``): ``(t + 2**(shift-1)) >> shift`` with
  an arithmetic shift.  This is the convention integer hardware implements
  with one adder; it differs from ``rint`` only on exact ties, which for
  compiled ``M0``/``D0`` constants occur with probability ~``2**-shift``.
  The fused C serving kernel's requant tail (``serve_tail`` in
  :mod:`repro.core.lutkernel`) re-implements exactly this expression --
  ``half = shift > 0 ? 1 << (shift - 1) : 0`` then an arithmetic ``>>`` --
  so its outputs are bit-identical to :func:`requantize`; the corner pins
  in ``tests/test_requant.py`` (shift == 0, rail-exact ties, negative
  ``d0``) are the contract both sides are held to.  See the fused
  pipeline section of ``docs/serving.md`` for how plan ops fuse onto it.

Overflow contract: :func:`derive_requant` picks the largest ``shift`` such
that ``|acc| <= acc_abs_max`` guarantees ``|acc * M0 + D0| + 2**(shift-1)
< 2**62`` -- every intermediate stays a valid int64 with a full safety
bit, and precision degrades gracefully (smaller ``shift``) for layers
with huge accumulators instead of overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError

__all__ = [
    "RequantParams",
    "derive_requant",
    "requantize",
    "requantize_reference",
    "rounding_right_shift",
    "ACC_BUDGET_BITS",
]

#: Fixed-point products must stay below ``2**ACC_BUDGET_BITS`` (one spare
#: bit under int64's 2**63 for the rounding addend and sign).
ACC_BUDGET_BITS = 62

#: Hard cap on ``shift`` so ``2**shift`` stays exact and the rounding
#: addend ``2**(shift-1)`` is a valid int64.
MAX_SHIFT = 60


@dataclass(frozen=True)
class RequantParams:
    """Frozen fixed-point requantization of one accumulator tensor.

    All three integer fields are int64 arrays of shape ``(channels,)``
    (size 1 for per-tensor requantization) and broadcast along the
    channel axis at apply time.

    Attributes:
        m0: Fixed-point multiplier ``round(M * 2**shift)``.
        d0: Fixed-point additive constant ``round(D * 2**shift)``; folds
            zero-point corrections, bias, fused BN, and the output zero
            point.
        shift: Per-channel right-shift (``0 <= shift <= MAX_SHIFT``).
        qmin: Lower saturation rail of the output grid.
        qmax: Upper saturation rail of the output grid.
        acc_abs_max: The accumulator magnitude bound the derivation
            guaranteed overflow-freedom for.
    """

    m0: np.ndarray
    d0: np.ndarray
    shift: np.ndarray
    qmin: int
    qmax: int
    acc_abs_max: int

    def __post_init__(self) -> None:
        for name in ("m0", "d0", "shift"):
            arr = getattr(self, name)
            if arr.dtype != np.int64 or arr.ndim != 1:
                raise QuantizationError(
                    f"RequantParams.{name} must be a 1-D int64 array, got "
                    f"{arr.dtype} ndim={arr.ndim}"
                )
        if self.m0.shape != self.d0.shape or self.m0.shape != self.shift.shape:
            raise QuantizationError("RequantParams field shape mismatch")
        if np.any(self.shift < 0) or np.any(self.shift > MAX_SHIFT):
            raise QuantizationError(
                f"shift outside [0, {MAX_SHIFT}]: {self.shift}"
            )
        if self.qmin >= self.qmax:
            raise QuantizationError(
                f"empty output range [{self.qmin}, {self.qmax}]"
            )

    @property
    def channels(self) -> int:
        return self.m0.size

    @property
    def per_channel(self) -> bool:
        return self.m0.size > 1

    def effective_multiplier(self) -> np.ndarray:
        """The exactly-representable real multiplier ``m0 * 2**-shift``."""
        return self.m0.astype(np.float64) * np.ldexp(1.0, -self.shift)

    def effective_offset(self) -> np.ndarray:
        """The exactly-representable real offset ``d0 * 2**-shift``."""
        return self.d0.astype(np.float64) * np.ldexp(1.0, -self.shift)

    def out_dtype(self) -> np.dtype:
        """Smallest integer dtype holding ``[qmin, qmax]`` saturated casts."""
        if self.qmin >= 0:
            if self.qmax <= 0xFF:
                return np.dtype(np.uint8)
            if self.qmax <= 0xFFFF:
                return np.dtype(np.uint16)
        elif self.qmin >= -128 and self.qmax <= 127:
            return np.dtype(np.int8)
        return np.dtype(np.int32)


def _derive_one(mult: float, offset: float, acc_abs_max: int) -> tuple[int, int, int]:
    """(m0, d0, shift) for one channel, maximizing fractional precision."""
    if not (math.isfinite(mult) and math.isfinite(offset)):
        raise QuantizationError(
            f"non-finite requant constants: M={mult}, D={offset}"
        )
    budget = 1 << ACC_BUDGET_BITS
    # Worst-case |acc * M0 + D0| + rounding addend, expressed pre-shift:
    # (acc_abs_max + 1) * |M| + |D| + 1 real units map to * 2**shift ints.
    magnitude = (acc_abs_max + 1.0) * abs(mult) + abs(offset) + 1.0
    shift = int(math.floor(math.log2(budget / magnitude))) if magnitude > 0 else MAX_SHIFT
    shift = max(0, min(MAX_SHIFT, shift))
    m0 = round(mult * (1 << shift))
    d0 = round(offset * (1 << shift))
    # Exact integer re-check (the float log2 estimate can be 1 off).
    while shift > 0 and (
        (acc_abs_max + 1) * abs(m0) + abs(d0) + (1 << max(shift - 1, 0)) >= budget
    ):
        shift -= 1
        m0 = round(mult * (1 << shift))
        d0 = round(offset * (1 << shift))
    if (acc_abs_max + 1) * abs(m0) + abs(d0) + 1 >= budget:
        raise QuantizationError(
            f"requant constants overflow int64 even at shift=0: M={mult}, "
            f"D={offset}, acc_abs_max={acc_abs_max}"
        )
    return m0, d0, shift


def derive_requant(
    multiplier,
    offset,
    acc_abs_max: int,
    qmin: int,
    qmax: int,
) -> RequantParams:
    """Fixed-point ``(M0, D0, shift)`` for ``q = clip(round(M*acc + D))``.

    Args:
        multiplier: Real requantization multiplier ``M`` -- scalar or
            per-channel ``(C,)`` array.  Signed: a fused BatchNorm with
            negative ``gamma`` yields negative ``M``.
        offset: Real additive offset ``D`` (same shape rules); includes
            the output zero point.
        acc_abs_max: Upper bound on ``|acc|`` over all reachable
            accumulator values (compile-time known for LUT-GEMM layers).
        qmin: Output grid lower rail.
        qmax: Output grid upper rail.

    The derivation maximizes ``shift`` per channel subject to the int64
    overflow contract in the module docstring, so the fixed-point error is
    ``<= (acc_abs_max + 1) * 2**-(shift+1)`` output quanta -- typically
    ``~2**-31`` relative.
    """
    mult = np.atleast_1d(np.asarray(multiplier, dtype=np.float64))
    offs = np.atleast_1d(np.asarray(offset, dtype=np.float64))
    if mult.ndim != 1 or offs.ndim != 1:
        raise QuantizationError("multiplier/offset must be scalars or 1-D")
    if mult.size != offs.size:
        if mult.size == 1:
            mult = np.full(offs.size, mult[0])
        elif offs.size == 1:
            offs = np.full(mult.size, offs[0])
        else:
            raise QuantizationError(
                f"multiplier/offset size mismatch: {mult.size} vs {offs.size}"
            )
    if acc_abs_max < 0:
        raise QuantizationError(f"negative acc_abs_max {acc_abs_max}")
    m0 = np.empty(mult.size, dtype=np.int64)
    d0 = np.empty(mult.size, dtype=np.int64)
    shift = np.empty(mult.size, dtype=np.int64)
    for i in range(mult.size):
        m0[i], d0[i], shift[i] = _derive_one(
            float(mult[i]), float(offs[i]), int(acc_abs_max)
        )
    return RequantParams(
        m0=m0, d0=d0, shift=shift, qmin=int(qmin), qmax=int(qmax),
        acc_abs_max=int(acc_abs_max),
    )


def rounding_right_shift(t: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``round(t * 2**-shift)`` with ties toward ``+inf``, pure int64.

    ``(t + 2**(shift-1)) >> shift`` -- numpy's ``>>`` on signed integers
    is an arithmetic (sign-preserving, flooring) shift, so the compound
    expression is floor-division by ``2**shift`` after adding half an ulp:
    exact round-half-up for positive and negative ``t`` alike.  A
    ``shift`` of 0 is the identity (``t`` already is the rounded value).
    """
    shift = np.asarray(shift, dtype=np.int64)
    half = np.where(
        shift > 0, np.int64(1) << np.maximum(shift - 1, 0), np.int64(0)
    )
    return (t + half) >> shift


def requantize(
    acc: np.ndarray, rp: RequantParams, channel_axis: int | None = None
) -> np.ndarray:
    """Integer accumulator -> saturated quantized output, no float anywhere.

    Args:
        acc: Integer accumulator array (any shape; any int dtype --
            upcast to int64 by the multiply).
        rp: Derived fixed-point parameters.
        channel_axis: Axis the per-channel constants broadcast along;
            required when ``rp.per_channel`` and ``acc.ndim > 1``.

    Returns:
        The quantized output as ``rp.out_dtype()`` (uint8 for 8-bit
        unsigned grids): ``clip(rrs(acc * M0 + D0, shift), qmin, qmax)``.
    """
    if not np.issubdtype(np.asarray(acc).dtype, np.integer):
        raise QuantizationError(
            f"requantize needs an integer accumulator, got {np.asarray(acc).dtype}"
        )
    m0, d0, shift = rp.m0, rp.d0, rp.shift
    if rp.per_channel:
        if channel_axis is None:
            if acc.ndim != 1:
                raise QuantizationError(
                    "channel_axis required for per-channel requantization"
                )
            channel_axis = 0
        if acc.shape[channel_axis] != rp.channels:
            raise QuantizationError(
                f"axis {channel_axis} has {acc.shape[channel_axis]} channels, "
                f"requant has {rp.channels}"
            )
        bshape = [1] * acc.ndim
        bshape[channel_axis] = rp.channels
        m0 = m0.reshape(bshape)
        d0 = d0.reshape(bshape)
        shift = shift.reshape(bshape)
    t = acc.astype(np.int64, copy=False) * m0 + d0
    q = rounding_right_shift(t, shift)
    np.clip(q, rp.qmin, rp.qmax, out=q)
    return q.astype(rp.out_dtype())


def requantize_reference(acc, rp: RequantParams) -> np.ndarray:
    """Exact arbitrary-precision reference of :func:`requantize`.

    Computes every value with Python integers (no int64 wraparound, no
    float), applying the documented round-half-up convention through
    true floor division.  Property tests pin :func:`requantize` against
    this for random accumulators/qparams; any divergence means an
    overflow or rounding bug in the vectorized path.
    """
    acc = np.atleast_1d(np.asarray(acc))
    if rp.per_channel and acc.shape[0] != rp.channels:
        raise QuantizationError("reference expects channels on axis 0")
    out = np.empty(acc.shape, dtype=np.int64)
    flat = acc.reshape(acc.shape[0], -1) if acc.ndim > 1 else acc.reshape(-1, 1)
    oflat = out.reshape(flat.shape)
    for c in range(flat.shape[0]):
        i = c if rp.per_channel else 0
        m0, d0, sh = int(rp.m0[i]), int(rp.d0[i]), int(rp.shift[i])
        half = (1 << (sh - 1)) if sh > 0 else 0
        for j in range(flat.shape[1]):
            t = int(flat[c, j]) * m0 + d0
            q = (t + half) >> sh  # Python ints: arbitrary precision floor
            oflat[c, j] = min(max(q, rp.qmin), rp.qmax)
    return out.astype(rp.out_dtype())

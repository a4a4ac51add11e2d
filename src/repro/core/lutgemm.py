"""Shared LUT-GEMM engine: chunked integer GEMM + gradient-LUT backward.

This is the hot path of every approximate layer (Fig. 4): the forward
``acc[m, c] = sum_k AM(Wq[m, k], Xq[k, c])`` runs through the AppMult's
flat product LUT, and the backward applies the Eq. 9 gradient LUTs.  Three
things make the engine fast enough for retraining sweeps:

1. **Process-level engine cache.**  Engines are keyed by
   ``(multiplier.name, bits, gradients.method, chunk)`` via
   :func:`get_engine`, so every converted layer of a model (and every
   deep-copied trial model in a DSE loop) shares one engine and one set of
   flat LUTs.  Cache hits verify the LUT/gradient tables actually match
   before sharing, so identically-labelled but different tables never
   collide.

2. **Read-only engines.**  An engine holds tables and call counters,
   nothing a call leaves behind for the next one: the numpy loops
   allocate their ``(M, K, chunk)`` index and gather buffers once per
   call, reuse them across chunks, and gather both gradient tables from
   one index per chunk with ``np.take(..., out=..., mode="clip")`` (the
   ``intp`` index dtype avoids numpy's internal index-conversion pass).
   So one shared engine, and one compiled plan over it, can serve any
   number of threads at once.

3. **Rank-1 lowering of product-separable LUTs.**  When the product LUT
   is exactly an outer product ``lut[w, x] == a[w] * b[x]`` (the DRUM-style
   ``mul8u_1DMU``, every exact multiplier), the forward sum is the matmul
   ``a[Wq] @ b[Xq]``.  The engine finds the integer factors ``(a, b)`` at
   construction -- from the LUT itself, so a fault-injected clone gets its
   own verdict -- and runs one float64 BLAS matmul instead of the gather
   whenever every partial sum provably stays an integer below ``2**53``
   (:meth:`LutGemm.separable_exact`) and both operands lie in
   ``[0, levels)``.  Within those bounds float64 arithmetic is exact in any
   summation order, so results are bit-identical to the gather; operands
   outside the range take the gather, whose clamped flat index the
   factorization does not reproduce.

4. **One shared execution core, two interchangeable backends.**  The
   actual gather-accumulate loops live in :mod:`repro.core.execcore`,
   which every consumer -- this tape engine, the frozen serving engines,
   and the compiled plan ops built on them -- lowers onto.  Large GEMMs
   route through the JIT-compiled fused C kernels in
   :mod:`repro.core.lutkernel` (forward *and* difference-LUT backward,
   optional ``REPRO_LUTKERNEL_THREADS`` threading); everything else, and
   every machine without a C compiler or with ``REPRO_NO_CCKERNEL=1``,
   takes the chunked numpy loops.  Both backends are bit-identical (the
   C backward is self-checked against numpy before first use), so the
   split is purely a speed decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import execcore, lutkernel
from repro.core.gradient import GradientPair
from repro.errors import ReproError
from repro.multipliers.base import Multiplier
from repro.obs.health import get_monitor
from repro.obs.trace import get_tracer

_TRACE = get_tracer()
_HEALTH = get_monitor()

#: Columns processed per LUT-GEMM chunk; bounds peak memory at roughly
#: ``M * K * chunk`` elements per buffer of a numpy forward or backward
#: call (each call allocates its own, once).
DEFAULT_CHUNK = 1024


class LutGemm:
    """Chunked LUT-based integer GEMM with gradient-LUT backward.

    Computes ``acc[m, c] = sum_k AM(Wq[m, k], Xq[k, c])`` through a flat
    product LUT, plus the Eq. 8 zero-point corrections; the backward method
    applies the gradient LUTs.

    Engines obtained from :func:`get_engine` are shared across layers and
    across ``copy.deepcopy`` (see :meth:`__deepcopy__`); treat their LUT
    arrays as immutable and use :meth:`clone_with_multiplier` to derive a
    private variant (e.g. for fault injection).
    """

    def __init__(
        self,
        multiplier: Multiplier,
        gradients: GradientPair | None,
        chunk: int = DEFAULT_CHUNK,
    ):
        # chunk is the column step of every numpy loop: 0 would crash the
        # first forward and a negative step would skip the loop, returning
        # the unwritten accumulator.
        if chunk < 1:
            raise ReproError(f"LutGemm chunk must be >= 1, got {chunk}")
        self.multiplier = multiplier
        self.gradients = gradients
        self.bits = multiplier.bits
        self.levels = 1 << self.bits
        self.lut_flat = np.ascontiguousarray(multiplier.lut().ravel())
        # Cached LUT value range: bounds every accumulator at compile time
        # (int32-safety check, requant overflow derivation).
        self._lut_min = int(self.lut_flat.min())
        self._lut_max = int(self.lut_flat.max())
        # Forward-only mode (``gradients is None``): the serving path never
        # runs a backward pass, so the float32 gradient tables (two
        # ``(2^B)^2`` arrays) are never materialized.
        self.forward_only = gradients is None
        self.chunk = chunk
        # int32 LUT for the fused C kernels (8-bit operand products always
        # fit; most multipliers already store int32).  Built for *every*
        # engine -- since the shared execution core, training engines use
        # the C forward too -- unless the LUT range genuinely overflows.
        if -(2**31) <= self._lut_min and self._lut_max < 2**31:
            self._lut_i32 = np.ascontiguousarray(self.lut_flat, dtype=np.int32)
        else:
            self._lut_i32 = None
        # Byte planes of a uint16 LUT for the C gathers' VBMI body (None
        # otherwise).  Derived from the table and never published to
        # shared memory: 128 KB per 8-bit engine.
        self._lut_planes = (
            lutkernel.byte_planes(self._lut_i32)
            if self._lut_i32 is not None
            else None
        )
        # Integer factors (a, b) of a rank-1 LUT, or None (see the module
        # docstring); float64 copies feed the matmul.
        self.separable = (
            _rank1_factors(self.lut_flat, self.levels)
            if self._lut_i32 is not None
            else None
        )
        if self.separable is not None:
            a, b = self.separable
            self._sep_f64 = (a.astype(np.float64), b.astype(np.float64))
            self._sep_bound = int(np.abs(a).max()) * int(np.abs(b).max())
        # Byte planes of the gx gradient table for the C backward's VBMI
        # body (see :meth:`_grad_byte_planes`).
        self._grad_planes = None
        if self.forward_only:
            self.grad_w_flat = None
            self.grad_x_flat = None
            self.ste_fast_path = False
        else:
            self.grad_w_flat = np.ascontiguousarray(
                gradients.grad_w.astype(np.float32).ravel()
            )
            self.grad_x_flat = np.ascontiguousarray(
                gradients.grad_x.astype(np.float32).ravel()
            )
            # STE tables are gradW == X and gradX == W; in that case the
            # gather-free matmul below is mathematically identical and much
            # faster (this is what makes the AccMult QAT reference cheap).
            n = self.levels
            idx = np.arange(n, dtype=np.float32)
            self.ste_fast_path = bool(
                np.array_equal(
                    gradients.grad_w, np.broadcast_to(idx[None, :], (n, n))
                )
                and np.array_equal(
                    gradients.grad_x, np.broadcast_to(idx[:, None], (n, n))
                )
            )
        self.forward_calls = 0
        self.backward_calls = 0
        self.ckernel_forward_calls = 0
        self.ckernel_backward_calls = 0

    # ------------------------------------------------------------------
    def matches(
        self, multiplier: Multiplier, gradients: GradientPair | None
    ) -> bool:
        """Whether this engine's tables equal the given multiplier/gradients."""
        same_lut = self.multiplier is multiplier or np.array_equal(
            self.lut_flat, np.asarray(multiplier.lut()).ravel()
        )
        if not same_lut:
            return False
        if self.forward_only or gradients is None:
            # A forward-only engine only serves forward-only requests (and
            # vice versa): gradient-table equality is undefined otherwise.
            return self.forward_only and gradients is None
        if self.gradients is gradients:
            return True
        return np.array_equal(
            self.grad_w_flat, gradients.grad_w.astype(np.float32).ravel()
        ) and np.array_equal(
            self.grad_x_flat, gradients.grad_x.astype(np.float32).ravel()
        )

    def clone_with_multiplier(self, multiplier: Multiplier) -> "LutGemm":
        """A private (uncached) engine for ``multiplier``, keeping gradients.

        Used by fault injection: the shared cached engine must never be
        mutated in place, so corrupted-LUT variants get their own engine
        (gradient tables are reused -- they are irrelevant for evaluation).
        """
        return LutGemm(multiplier, self.gradients, chunk=self.chunk)

    def __deepcopy__(self, memo) -> "LutGemm":
        # Engines are shared, read-only resources; deep copies of a model
        # (DSE trials, fault-injection sweeps) keep pointing at the same
        # engine instead of duplicating its multi-MB LUT arrays.
        return self

    def _grad_byte_planes(self) -> np.ndarray:
        """The byte planes of the ``gx`` gradient table, built on first use.

        The C backward's VBMI body gathers ``gx`` from them (256 KB for
        an 8-bit training engine); its ``gw`` sum reads the table itself.
        Built lazily, so engines that never run a C backward --
        forward-only ones, and the training engines that calibration and
        serving set-up create -- hold none.  The table is assigned once
        and never mutated, so the planes stay valid; a race between two
        first calls builds equal planes twice.
        """
        if self._grad_planes is None:
            self._grad_planes = lutkernel.byte_planes(self.grad_x_flat)
        return self._grad_planes

    # ------------------------------------------------------------------
    def int32_acc_safe(self, k: int) -> bool:
        """Whether a K-term product sum provably fits an int32 accumulator."""
        bound = k * max(abs(self._lut_min), abs(self._lut_max))
        return bound < 2**31

    def separable_exact(self, k: int) -> bool:
        """Whether a K-term matmul over the rank-1 factors is exact in float64.

        Every partial sum is an integer of magnitude at most
        ``K * max|a| * max|b|``; below ``2**53`` each one is representable,
        so the matmul is exact whatever order BLAS sums in.
        """
        return self.separable is not None and k * self._sep_bound < 2**53

    def separable_for(self, wq: np.ndarray) -> bool:
        """Whether the rank-1 matmul may serve weights ``wq`` (shape (M, K)).

        Activations still need :func:`~repro.core.execcore.in_levels`
        per call.  Compiled plan ops ask this once per layer, since their
        weights are frozen.
        """
        return self.separable_exact(wq.shape[1]) and execcore.in_levels(
            wq, self.levels
        )

    def product_sums(
        self,
        wq: np.ndarray,
        xq: np.ndarray,
        acc_dtype=np.int64,
        record_backward: bool = True,
        xq_bounds: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """``sum_k AM(wq[m,k], xq[k,c])``, shape (M, C).

        ``acc_dtype`` selects the accumulator output width: ``np.int64``
        (default) or ``np.int32``.  int32 mode halves the C gather
        kernel's accumulator write traffic for the integer serving plan;
        it is refused (``ReproError``) unless :meth:`int32_acc_safe`
        proves every reachable sum fits, so results are bit-identical
        whenever the call succeeds.

        ``record_backward`` is accepted and ignored: a forward leaves
        nothing behind for a backward to reuse.

        ``xq_bounds`` is the caller's ``(min, max)`` of ``xq`` when it
        knows them by construction (the approximate conv layer reads
        them off its quantized image): the operand range checks below
        and in the C gather then skip their scans of ``xq``.

        Product-separable LUTs take one float64 matmul when
        :meth:`separable_for` and :func:`~repro.core.execcore.in_levels`
        prove it exact (see the module docstring).
        """
        m, k = wq.shape
        k2, c = xq.shape
        if k != k2:
            raise ReproError(f"LutGemm shapes: {wq.shape} x {xq.shape}")
        acc_dtype = np.dtype(acc_dtype)
        if acc_dtype not in (np.dtype(np.int64), np.dtype(np.int32)):
            raise ReproError(f"unsupported accumulator dtype {acc_dtype}")
        if acc_dtype == np.int32 and not self.int32_acc_safe(k):
            raise ReproError(
                f"int32 accumulators may overflow: K={k}, LUT range "
                f"[{self._lut_min}, {self._lut_max}]; use int64"
            )
        self.forward_calls += 1
        if _HEALTH.enabled:
            # LUT-coverage probe: reads the quantized operands only (no
            # RNG), so results stay bit-identical.
            _HEALTH.observe_operands(self, wq, xq)
        if self.separable_for(wq) and execcore._xq_in_levels(
            xq, self.levels, xq_bounds
        ):
            wa = np.take(self._sep_f64[0], wq)
            return execcore.separable_sums(self, wa, xq).astype(acc_dtype)
        return execcore.product_sums(self, wq, xq, acc_dtype, xq_bounds)

    def backward_grads(
        self,
        wq: np.ndarray,
        xq: np.ndarray,
        gout: np.ndarray,
        zw,
        zx,
        xq_bounds: tuple[int, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply the gradient LUTs (Eq. 9 inner part).

        Args:
            wq: (M, K) quantized weights.
            xq: (K, C) quantized activations.
            gout: (M, C) upstream gradient ``dL/d(acc)``.
            zw, zx: Zero points of weights / activations.
            xq_bounds: Optional ``(min, max)`` of ``xq``, as for
                :meth:`product_sums`.

        Returns:
            ``(gw, gx)`` with shapes (M, K) and (K, C):
            ``gw[m,k] = sum_c gout[m,c] * (gradW(W,X) - zx)`` and
            ``gx[k,c] = sum_m gout[m,c] * (gradX(W,X) - zw)``.
        """
        gw, gx_raw, zcol = self.backward_raw(wq, xq, gout, zw, zx, xq_bounds)
        # Out of place: gx_raw is float32 off the LUT backends, and the
        # float64 zcol subtraction must not round back into it.
        return gw, gx_raw - zcol[None, :]

    def backward_raw(
        self,
        wq: np.ndarray,
        xq: np.ndarray,
        gout: np.ndarray,
        zw,
        zx,
        xq_bounds: tuple[int, int] | None = None,
        need_gx: bool = True,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """:meth:`backward_grads` with the ``gx`` zero-point term left apart.

        Returns ``(gw, gx_raw, zcol)``: ``gw`` as :meth:`backward_grads`
        returns it, the raw (K, C) ``gx_raw[k,c] = sum_m gout[m,c] *
        gradX(W,X)`` and the float64 (C,) column term ``zcol[c] = sum_m
        zw * gout[m,c]``, so ``gx = gx_raw - zcol[None, :]`` (out of
        place, in float64).  ``gx_raw`` is float32 -- the dtype both
        backends sum it in -- except on the STE fast path, whose exact
        matmul gives float64.  A caller that passes ``gx`` on (the conv
        layer's fold, :func:`repro.core.execcore.fold_input_grad`)
        subtracts the term as it reads each element instead of in a pass
        of its own.
        ``need_gx=False`` (a layer whose input needs no gradient) skips
        both and returns ``(gw, None, None)``; ``gw`` is unchanged.
        """
        if self.forward_only:
            raise ReproError(
                "this LutGemm engine is forward-only (no gradient LUTs); "
                "build it with a GradientPair to run backward passes"
            )
        m, k = wq.shape
        _, c = xq.shape
        self.backward_calls += 1
        gout = np.ascontiguousarray(gout, dtype=np.float32)
        zw_vec = np.atleast_1d(np.asarray(zw, dtype=np.float64))
        if self.ste_fast_path:
            _TRACE.count("lutgemm.backward.ste_fast_path")
            gf = gout.astype(np.float64)
            gw = gf @ xq.astype(np.float64).T
            gw -= zx * gf.sum(axis=1)[:, None]
            if not need_gx:
                return gw, None, None
            gx = wq.astype(np.float64).T @ gf
            # zw may be scalar (per-tensor) or per-output-channel (M,).
            zcol = (zw_vec[:, None] * gf).sum(axis=0) if zw_vec.size > 1 \
                else zw_vec[0] * gf.sum(axis=0)
            return gw, gx, zcol
        gw, gx = execcore.backward_grads(
            self, wq, xq, gout, xq_bounds, need_gx
        )
        # Zero-point cross terms of Eq. 8, applied in closed form.
        gsum_c = gout.sum(axis=1, dtype=np.float64)  # (M,)
        gw -= zx * gsum_c[:, None]
        if not need_gx:
            return gw, None, None
        if zw_vec.size > 1:
            zcol = (zw_vec[:, None] * gout.astype(np.float64)).sum(axis=0)
        else:
            zcol = zw_vec[0] * gout.sum(axis=0, dtype=np.float64)
        return gw, gx, zcol


# ----------------------------------------------------------------------
# Rank-1 factorization.
def _rank1_factors(
    lut_flat: np.ndarray, levels: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Integer tables ``(a, b)`` with ``lut[w * levels + x] == a[w] * b[x]``.

    ``None`` unless the ``(levels, levels)`` LUT is exactly such an outer
    product.  Every row of a rank-1 integer matrix is an integer multiple
    of one primitive row, so ``b`` is the first nonzero row divided by the
    gcd of its entries and ``a`` is read off one column; the verdict is the
    exact check ``outer(a, b) == lut`` over all ``levels**2`` entries.
    """
    lut = np.asarray(lut_flat).reshape(levels, levels)
    nonzero_rows = lut.any(axis=1)
    if not nonzero_rows.any():
        zeros = np.zeros(levels, dtype=np.int64)
        return zeros, zeros.copy()
    row = lut[int(nonzero_rows.argmax())].astype(np.int64)
    j0 = int(np.flatnonzero(row)[0])
    b = row // np.gcd.reduce(row)
    a = lut[:, j0].astype(np.int64) // b[j0]
    if not np.array_equal(np.outer(a, b), lut):
        return None
    return a, b


# ----------------------------------------------------------------------
# Process-level engine cache.
_ENGINE_CACHE: dict[tuple, LutGemm] = {}
_cache_hits = 0
_cache_misses = 0


#: Cache-key stand-in for ``gradients.method`` of forward-only engines.
FORWARD_ONLY_METHOD = "<forward-only>"


def get_engine(
    multiplier: Multiplier,
    gradients: GradientPair | None,
    chunk: int = DEFAULT_CHUNK,
) -> LutGemm:
    """The shared engine for ``(multiplier, gradients, chunk)``.

    Keyed by ``(multiplier.name, bits, gradients.method, chunk)``; on a key
    hit the cached engine's tables are verified against the requested ones
    (cheap: one pass over the ``(2^B)^2`` LUTs) so distinct tables that
    happen to share a label rebuild instead of aliasing.

    Pass ``gradients=None`` for a forward-only engine (inference serving):
    it skips gradient-LUT materialization entirely and raises on
    :meth:`LutGemm.backward_grads`.
    """
    global _cache_hits, _cache_misses
    method = FORWARD_ONLY_METHOD if gradients is None else gradients.method
    key = (multiplier.name, multiplier.bits, method, chunk)
    engine = _ENGINE_CACHE.get(key)
    if engine is not None and engine.matches(multiplier, gradients):
        _cache_hits += 1
        _TRACE.count("lutgemm.cache_hits")
        return engine
    _cache_misses += 1
    _TRACE.count("lutgemm.cache_misses")
    engine = LutGemm(multiplier, gradients, chunk=chunk)
    _ENGINE_CACHE[key] = engine
    return engine


def clear_engine_cache() -> None:
    """Drop all cached engines and reset hit/miss counters."""
    global _cache_hits, _cache_misses
    _ENGINE_CACHE.clear()
    _cache_hits = 0
    _cache_misses = 0


@dataclass
class EngineCacheStats:
    """Snapshot of the engine cache (see :func:`engine_cache_stats`)."""

    entries: int
    hits: int
    misses: int
    engines: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (sweep run events, metrics exports)."""
        return {
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "engines": [dict(e) for e in self.engines],
        }


def engine_cache_stats() -> EngineCacheStats:
    """Cache counters plus per-engine call statistics, for run reports."""
    engines = [
        {
            "multiplier": key[0],
            "bits": key[1],
            "method": key[2],
            "chunk": key[3],
            "forward_calls": eng.forward_calls,
            "backward_calls": eng.backward_calls,
            "ckernel_forward_calls": eng.ckernel_forward_calls,
            "ckernel_backward_calls": eng.ckernel_backward_calls,
        }
        for key, eng in _ENGINE_CACHE.items()
    ]
    return EngineCacheStats(
        entries=len(_ENGINE_CACHE),
        hits=_cache_hits,
        misses=_cache_misses,
        engines=engines,
    )


def format_engine_stats(stats: EngineCacheStats | None = None) -> str:
    """Human-readable engine cache report (used by the CLI)."""
    stats = stats or engine_cache_stats()
    lines = [
        f"LUT-GEMM engine cache: {stats.entries} engine(s), "
        f"{stats.hits} hit(s), {stats.misses} miss(es)"
    ]
    for e in stats.engines:
        lines.append(
            f"  {e['multiplier']} [{e['method']}, chunk={e['chunk']}]: "
            f"{e['forward_calls']} fwd / {e['backward_calls']} bwd calls, "
            f"{e.get('ckernel_forward_calls', 0)} C fwd / "
            f"{e.get('ckernel_backward_calls', 0)} C bwd"
        )
    return "\n".join(lines)

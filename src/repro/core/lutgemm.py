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

2. **Fused backward with preallocated scratch.**  The per-chunk
   ``(M, K, chunk)`` index tensor is built once per chunk into a grow-only
   scratch buffer and both gradient tables are gathered from it with
   ``np.take(..., out=..., mode="clip")`` -- no fresh temporaries, and the
   ``intp`` index dtype avoids numpy's internal index-conversion pass
   (measured ~2x end-to-end vs the naive fancy-indexing implementation,
   bit-identical results).  When the whole GEMM fits in a single chunk the
   backward reuses the forward's index tensor outright.

3. **One shared execution core, two interchangeable backends.**  The
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

from repro.core import execcore
from repro.core.gradient import GradientPair
from repro.errors import ReproError
from repro.multipliers.base import Multiplier
from repro.obs.health import get_monitor
from repro.obs.trace import get_tracer

_TRACE = get_tracer()
_HEALTH = get_monitor()

#: Columns processed per LUT-GEMM chunk; bounds peak memory at
#: roughly ``M * K * chunk`` elements per scratch buffer.
DEFAULT_CHUNK = 1024


class _Scratch:
    """Grow-only flat buffers, viewed/reshaped to each call's shape.

    One pool per engine: because engines are shared per
    ``(multiplier, method, chunk)``, layers of different shapes reuse the
    same allocation instead of re-mallocing ``M * K * chunk`` temporaries
    every chunk (the dominant cost of the naive implementation).
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
        size = 1
        for dim in shape:
            size *= dim
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            buf = np.empty(size, dtype=dtype)
            self._bufs[name] = buf
        return buf[:size].reshape(shape)


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
        # ``(2^B)^2`` arrays) are never materialized and the forward skips
        # its backward-support bookkeeping.
        self.forward_only = gradients is None
        self.chunk = chunk
        self.exact_fast_path = multiplier.is_exact
        # int32 LUT for the fused C kernels (8-bit operand products always
        # fit; most multipliers already store int32).  Built for *every*
        # engine -- since the shared execution core, training engines use
        # the C forward too -- unless the LUT range genuinely overflows.
        if -(2**31) <= self._lut_min and self._lut_max < 2**31:
            self._lut_i32 = np.ascontiguousarray(self.lut_flat, dtype=np.int32)
        else:
            self._lut_i32 = None
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
        self._scratch = _Scratch()
        # Operands of the last single-chunk forward whose index tensor is
        # still resident in scratch (lets the backward skip rebuilding it).
        self._fwd_operands: tuple[np.ndarray, np.ndarray] | None = None
        self.forward_calls = 0
        self.backward_calls = 0
        self.idx_reuses = 0
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
        # Engines are shared, immutable resources; deep copies of a model
        # (DSE trials, fault-injection sweeps) keep pointing at the same
        # engine instead of duplicating multi-MB LUT and scratch arrays.
        return self

    # ------------------------------------------------------------------
    # Shared-memory table publication (repro.serve.shm).
    def shared_tables(self) -> dict[str, np.ndarray]:
        """The forward tables eligible for cross-process sharing, by name.

        Keys match the keyword arguments of :meth:`adopt_shared_tables`;
        the sharded serving layer publishes each table into a
        shared-memory segment and adopts the resulting view back, so N
        worker processes read one host-wide copy.
        """
        tables = {"lut_flat": self.lut_flat}
        # Only serving (forward-only) engines publish the int32 LUT:
        # training engines now carry one too (for the C forward), but the
        # sharded serving layer never forks workers around them and the
        # segment census in its tests counts one segment per *published*
        # table.
        if self.forward_only and self._lut_i32 is not None:
            tables["lut_i32"] = self._lut_i32
        return tables

    def adopt_shared_tables(
        self,
        lut_flat: np.ndarray | None = None,
        lut_i32: np.ndarray | None = None,
    ) -> None:
        """Rebind forward tables onto externally-managed (shm) arrays.

        Each replacement must be bit-identical to the current table --
        adoption changes where the bytes live, never what they are -- so
        every downstream result stays bit-identical by construction.
        """
        if lut_flat is not None:
            cur = self.lut_flat
            if (
                lut_flat.shape != cur.shape
                or lut_flat.dtype != cur.dtype
                or not np.array_equal(lut_flat, cur)
            ):
                raise ReproError(
                    "adopt_shared_tables: lut_flat replacement differs "
                    "from the engine's table"
                )
            self.lut_flat = lut_flat
        if lut_i32 is not None:
            cur = self._lut_i32
            if cur is None:
                raise ReproError(
                    "adopt_shared_tables: engine has no int32 LUT "
                    "(LUT values exceed the int32 range)"
                )
            if (
                lut_i32.shape != cur.shape
                or lut_i32.dtype != cur.dtype
                or not np.array_equal(lut_i32, cur)
            ):
                raise ReproError(
                    "adopt_shared_tables: lut_i32 replacement differs "
                    "from the engine's table"
                )
            self._lut_i32 = lut_i32

    # ------------------------------------------------------------------
    def _build_idx(
        self, wrow: np.ndarray, xq_block: np.ndarray, shape: tuple[int, int, int]
    ) -> np.ndarray:
        idx = self._scratch.get("idx", np.intp, shape)
        np.add(wrow[:, :, None], xq_block[None, :, :], out=idx)
        return idx

    def int32_acc_safe(self, k: int) -> bool:
        """Whether a K-term product sum provably fits an int32 accumulator."""
        bound = k * max(abs(self._lut_min), abs(self._lut_max))
        return bound < 2**31

    def product_sums(
        self,
        wq: np.ndarray,
        xq: np.ndarray,
        acc_dtype=np.int64,
        record_backward: bool = True,
    ) -> np.ndarray:
        """``sum_k AM(wq[m,k], xq[k,c])``, shape (M, C).

        ``acc_dtype`` selects the accumulator output width: ``np.int64``
        (default) or ``np.int32``.  int32 mode halves the C gather
        kernel's accumulator write traffic for the integer serving plan;
        it is refused (``ReproError``) unless :meth:`int32_acc_safe`
        proves every reachable sum fits, so results are bit-identical
        whenever the call succeeds.

        ``record_backward=False`` tells the engine no backward pass will
        consume this forward (eval under ``no_grad``, serving), letting
        it skip the operand snapshot that enables backward index reuse.
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
            # scratch, no RNG), so results stay bit-identical.
            _HEALTH.observe_operands(self, wq, xq)
        if self.exact_fast_path:
            # AM == exact product: a float matmul is bit-exact here because
            # operands are < 2**10 and K is small enough for float64.
            _TRACE.count("lutgemm.forward.exact_fast_path")
            return np.rint(
                wq.astype(np.float64) @ xq.astype(np.float64)
            ).astype(acc_dtype)
        return execcore.product_sums(
            self, wq, xq, acc_dtype,
            record_backward and not self.forward_only,
        )

    def backward_grads(
        self,
        wq: np.ndarray,
        xq: np.ndarray,
        gout: np.ndarray,
        zw,
        zx,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply the gradient LUTs (Eq. 9 inner part).

        Args:
            wq: (M, K) quantized weights.
            xq: (K, C) quantized activations.
            gout: (M, C) upstream gradient ``dL/d(acc)``.
            zw, zx: Zero points of weights / activations.

        Returns:
            ``(gw, gx)`` with shapes (M, K) and (K, C):
            ``gw[m,k] = sum_c gout[m,c] * (gradW(W,X) - zx)`` and
            ``gx[k,c] = sum_m gout[m,c] * (gradX(W,X) - zw)``.
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
            gx = wq.astype(np.float64).T @ gf
            gw -= zx * gf.sum(axis=1)[:, None]
            # zw may be scalar (per-tensor) or per-output-channel (M,).
            gx -= (zw_vec[:, None] * gf).sum(axis=0)[None, :] if zw_vec.size > 1 \
                else zw_vec[0] * gf.sum(axis=0)[None, :]
            return gw, gx
        gw, gx = execcore.backward_grads(self, wq, xq, gout)
        # Zero-point cross terms of Eq. 8, applied in closed form.
        gsum_c = gout.sum(axis=1, dtype=np.float64)  # (M,)
        gw -= zx * gsum_c[:, None]
        if zw_vec.size > 1:
            gx -= (zw_vec[:, None] * gout.astype(np.float64)).sum(axis=0)[None, :]
        else:
            gx -= zw_vec[0] * gout.sum(axis=0, dtype=np.float64)[None, :]
        return gw, gx


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


def iter_cached_engines():
    """Yield ``(key, engine)`` for every live cache entry.

    Used by the sharded serving layer to publish every cached engine's
    forward tables into shared memory before forking workers.
    """
    yield from _ENGINE_CACHE.items()


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
            "idx_reuses": eng.idx_reuses,
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
            f"{e['idx_reuses']} idx reuse(s), "
            f"{e.get('ckernel_forward_calls', 0)} C fwd / "
            f"{e.get('ckernel_backward_calls', 0)} C bwd"
        )
    return "\n".join(lines)

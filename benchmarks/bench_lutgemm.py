"""Microbenchmark: LUT-GEMM engine forward/backward throughput.

Times :class:`repro.core.lutgemm.LutGemm` against the seed implementation
(kept verbatim below as ``SeedLutGemm``) for the three engine flavours --
exact fast path, STE fast path, and the generic gather path used by
difference gradients -- and verifies that the optimized engine is
*bit-identical*: same ``product_sums`` int64 outputs and exactly matching
``backward_grads`` arrays.

Run standalone (the CI smoke job does exactly this)::

    python benchmarks/bench_lutgemm.py --smoke   # small shapes, no timing gate
    python benchmarks/bench_lutgemm.py           # full shapes, asserts the
                                                 # >= 1.5x backward speedup

Results are printed and written to ``benchmarks/results/lutgemm.txt``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.gradient import gradient_luts  # noqa: E402
from repro.core.lutgemm import LutGemm  # noqa: E402
from repro.multipliers.exact import ExactMultiplier  # noqa: E402
from repro.multipliers.registry import get_multiplier  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class SeedLutGemm:
    """The pre-optimization engine, verbatim -- the comparison baseline."""

    def __init__(self, multiplier, gradients, chunk=1024):
        self.multiplier = multiplier
        self.bits = multiplier.bits
        self.levels = 1 << self.bits
        self.lut_flat = np.ascontiguousarray(multiplier.lut().ravel())
        self.grad_w_flat = np.ascontiguousarray(
            gradients.grad_w.astype(np.float32).ravel()
        )
        self.grad_x_flat = np.ascontiguousarray(
            gradients.grad_x.astype(np.float32).ravel()
        )
        self.chunk = chunk
        self.is_exact = multiplier.is_exact
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

    def product_sums(self, wq, xq):
        m, k = wq.shape
        _, c = xq.shape
        if self.is_exact:
            return np.rint(
                wq.astype(np.float64) @ xq.astype(np.float64)
            ).astype(np.int64)
        wrow = wq.astype(np.int32) * self.levels
        out = np.empty((m, c), dtype=np.int64)
        for c0 in range(0, c, self.chunk):
            idx = wrow[:, :, None] + xq[None, :, c0 : c0 + self.chunk]
            out[:, c0 : c0 + self.chunk] = self.lut_flat[idx].sum(
                axis=1, dtype=np.int64
            )
        return out

    def backward_grads(self, wq, xq, gout, zw, zx):
        m, k = wq.shape
        _, c = xq.shape
        gout = np.ascontiguousarray(gout, dtype=np.float32)
        zw_vec = np.atleast_1d(np.asarray(zw, dtype=np.float64))
        if self.ste_fast_path:
            gf = gout.astype(np.float64)
            gw = gf @ xq.astype(np.float64).T
            gx = wq.astype(np.float64).T @ gf
            gw -= zx * gf.sum(axis=1)[:, None]
            gx -= (zw_vec[:, None] * gf).sum(axis=0)[None, :] if zw_vec.size > 1 \
                else zw_vec[0] * gf.sum(axis=0)[None, :]
            return gw, gx
        gw = np.zeros((m, k), dtype=np.float64)
        gx = np.empty((k, c), dtype=np.float64)
        wrow = wq.astype(np.int32) * self.levels
        for c0 in range(0, c, self.chunk):
            sl = slice(c0, min(c0 + self.chunk, c))
            idx = wrow[:, :, None] + xq[None, :, sl]
            g = gout[:, None, sl]
            gw += (g * self.grad_w_flat[idx]).sum(axis=2)
            gx[:, sl] = (g * self.grad_x_flat[idx]).sum(axis=0)
        gsum_c = gout.sum(axis=1, dtype=np.float64)
        gw -= zx * gsum_c[:, None]
        if zw_vec.size > 1:
            gx -= (zw_vec[:, None] * gout.astype(np.float64)).sum(axis=0)[None, :]
        else:
            gx -= zw_vec[0] * gout.sum(axis=0, dtype=np.float64)[None, :]
        return gw, gx


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_case(name, multiplier, method, shape, chunk, repeats, hws=None):
    """Time seed vs optimized engine on one (M, K, C) problem."""
    m, k, c = shape
    pair = gradient_luts(multiplier, method, hws=hws)
    seed = SeedLutGemm(multiplier, pair, chunk=chunk)
    engine = LutGemm(multiplier, pair, chunk=chunk)
    rng = np.random.default_rng(7)
    n = 1 << multiplier.bits
    wq = rng.integers(0, n, size=(m, k)).astype(np.int32)
    xq = rng.integers(0, n, size=(k, c)).astype(np.int32)
    gout = rng.normal(size=(m, c)).astype(np.float32)
    zw, zx = 3, 5

    acc_seed = seed.product_sums(wq, xq)
    acc_new = engine.product_sums(wq, xq)
    assert np.array_equal(acc_seed, acc_new), f"{name}: product_sums mismatch"
    gw_seed, gx_seed = seed.backward_grads(wq, xq, gout, zw, zx)
    gw_new, gx_new = engine.backward_grads(wq, xq, gout, zw, zx)
    assert np.array_equal(gw_seed, gw_new), f"{name}: grad_w mismatch"
    assert np.array_equal(gx_seed, gx_new), f"{name}: grad_x mismatch"

    fwd_seed = _best_of(lambda: seed.product_sums(wq, xq), repeats)
    fwd_new = _best_of(lambda: engine.product_sums(wq, xq), repeats)
    bwd_seed = _best_of(
        lambda: seed.backward_grads(wq, xq, gout, zw, zx), repeats
    )
    bwd_new = _best_of(
        lambda: engine.backward_grads(wq, xq, gout, zw, zx), repeats
    )
    # Multiplications per GEMM: M * K * C for forward, same for backward.
    mults = m * k * c
    return {
        "name": name,
        "fwd_seed_ms": fwd_seed * 1e3,
        "fwd_new_ms": fwd_new * 1e3,
        "fwd_speedup": fwd_seed / fwd_new,
        "fwd_gmuls": mults / fwd_new / 1e9,
        "bwd_seed_ms": bwd_seed * 1e3,
        "bwd_new_ms": bwd_new * 1e3,
        "bwd_speedup": bwd_seed / bwd_new,
        "bwd_gmuls": mults / bwd_new / 1e9,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small shapes, exactness checks only (no timing assertion)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        shape, chunk, repeats = (8, 72, 256), 64, args.repeats or 1
    else:
        shape, chunk, repeats = (32, 288, 4096), 1024, args.repeats or 3

    mult8 = get_multiplier("mul8u_1DMU")
    cases = [
        run_case("exact/ste", ExactMultiplier(8), "ste", shape, chunk, repeats),
        run_case("appmult/ste", mult8, "ste", shape, chunk, repeats),
        run_case("appmult/difference", mult8, "difference", shape, chunk, repeats),
    ]

    m, k, c = shape
    lines = [
        f"LUT-GEMM engine microbenchmark (M={m}, K={k}, C={c}, "
        f"chunk={chunk}, best of {repeats})",
        "all outputs verified bit-identical to the seed implementation",
        f"{'engine':<20} {'fwd seed':>9} {'fwd new':>9} {'x':>5} "
        f"{'bwd seed':>9} {'bwd new':>9} {'x':>5} {'bwd Gmul/s':>11}",
    ]
    for r in cases:
        lines.append(
            f"{r['name']:<20} {r['fwd_seed_ms']:8.1f}m {r['fwd_new_ms']:8.1f}m "
            f"{r['fwd_speedup']:5.2f} {r['bwd_seed_ms']:8.1f}m "
            f"{r['bwd_new_ms']:8.1f}m {r['bwd_speedup']:5.2f} "
            f"{r['bwd_gmuls']:11.3f}"
        )
    text = "\n".join(lines)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "lutgemm.txt").write_text(text + "\n")

    if not args.smoke:
        diff = cases[2]
        if diff["bwd_speedup"] < 1.5:
            print(
                f"FAIL: difference-gradient backward speedup "
                f"{diff['bwd_speedup']:.2f}x < 1.5x",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: difference-gradient backward speedup "
            f"{diff['bwd_speedup']:.2f}x (>= 1.5x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

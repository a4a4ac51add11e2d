"""Benchmark: compiled inference plan vs eval-mode training-graph forward.

Measures single-sample latency of :func:`repro.serve.plan.compile_plan`
output against the tape-building eval-mode forward on the same frozen
approximate model, verifies the two are *bit-identical*, and reports the
micro-batching throughput win (coalesced batch vs one-at-a-time).

Also gates the integer-only serving plan (``arithmetic="int"``): its
outputs must be bit-identical to the float-scale plan, its op walk must be
integer end-to-end between input quantization and final dequantization
(:func:`repro.serve.plan.assert_integer_core`), and in full mode its
single-sample latency must be no worse than the float-scale plan's.

The fused integer pipeline (``fused_int`` ops, the default for int plans)
is gated against the unfused plan (``fuse=False``): bit-identical outputs
on the C backend *and* the numpy fallback, for 1 and 4 kernel threads,
and in full mode >= 1.5x single-sample latency vs the unfused plan.

Run standalone (the CI smoke job uses ``--quick``)::

    python benchmarks/bench_serve.py --quick      # small model, no timing gate
    python benchmarks/bench_serve.py              # asserts >= 2x single-sample
                                                  # plan speedup
    python benchmarks/bench_serve.py --workers 2  # worker-pool mode: scaling
                                                  # + burst-p99 gates, emits
                                                  # BENCH_serve.json

Results are printed and written to ``benchmarks/results/serve.txt`` (or
``serve_workers.txt`` plus a machine-readable ``BENCH_serve.json`` at the
repo root in ``--workers`` mode).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.autograd.tensor import Tensor, no_grad  # noqa: E402
from repro.models.lenet import LeNet  # noqa: E402
from repro.multipliers.registry import get_multiplier  # noqa: E402
from repro.retrain.convert import approximate_model, calibrate, freeze  # noqa: E402
from repro.serve import (  # noqa: E402
    ServeMetrics,
    WorkerPool,
    assert_integer_core,
    compile_plan,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Scaling gate from the issue: N workers must deliver >= 0.75*N the
#: single-worker throughput -- but only up to the host's core count
#: (a single-core container cannot scale and must not fail the gate).
SCALING_FRACTION = 0.75
MAX_GATED_WORKERS = 4


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _paired_best(fn_a, fn_b, repeats: int) -> tuple[float, float, float]:
    """Interleaved A/B timing: best of each plus the median per-pair ratio.

    Alternating the two subjects inside one loop exposes both to the same
    background load; the a/b ratio is then computed within each pair so
    machine-speed drift cancels, and the median over pairs discards
    outlier iterations on either side.
    """
    best_a = best_b = float("inf")
    ratios = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        dt_a = time.perf_counter() - t0
        t0 = time.perf_counter()
        fn_b()
        dt_b = time.perf_counter() - t0
        best_a = min(best_a, dt_a)
        best_b = min(best_b, dt_b)
        ratios.append(dt_a / dt_b)
    return best_a, best_b, float(np.median(ratios))


def build_frozen_model(image_size: int, multiplier_name: str):
    """Approximate LeNet with calibrated+frozen quantization, eval mode.

    Built with difference gradients -- the configuration a retrained
    checkpoint is actually produced with -- so the tape baseline measures
    the training graph as it exists after retraining, while the compiled
    plan swaps in a forward-only engine.
    """
    model = approximate_model(
        LeNet(num_classes=10, image_size=image_size, seed=0),
        get_multiplier(multiplier_name),
        gradient_method="difference",
        hws=2,
        include_linear=True,
    )
    rng = np.random.default_rng(0)
    calib = rng.standard_normal((16, 3, image_size, image_size))
    calibrate(model, [(calib, None)])
    freeze(model)
    model.eval()
    return model


def _pool_load(pool, samples, timeout: float = 120.0):
    """Push ``samples`` through ``pool``; return (outputs, elapsed_s)."""
    t0 = time.perf_counter()
    futures = [pool.submit(s) for s in samples]
    outs = [f.result(timeout=timeout) for f in futures]
    return outs, time.perf_counter() - t0


def _request_percentiles(metrics: ServeMetrics) -> tuple[float, float]:
    hist = metrics.as_dict()["latency"].get("request_ms")
    if not hist:
        return float("nan"), float("nan")
    return hist["p50_ms"], hist["p99_ms"]


def workers_main(args) -> int:
    """Worker-pool serving benchmark: thread scaling and burst p99.

    Emits ``BENCH_serve.json`` at the repo root mapping worker count to
    req/s and p50/p99 request latency.  The >= 0.75*N scaling gate and the
    burst-p99 bound only apply while N <= min(4, cores): a host without N
    cores cannot scale to N workers and is reported, not failed.
    """
    workers = args.workers
    if args.quick:
        image_size, n_req = 12, 48
    else:
        image_size, n_req = 16, 160
    multiplier_name = "mul8u_1DMU"
    cores = os.cpu_count() or 1
    gated = workers <= min(MAX_GATED_WORKERS, cores)

    model = build_frozen_model(image_size, multiplier_name)
    int_plan = compile_plan(model, arithmetic="int")
    assert_integer_core(int_plan)
    rng = np.random.default_rng(7)
    samples = list(rng.standard_normal((n_req, 3, image_size, image_size)))
    ref = int_plan.run(np.stack(samples))

    def make_pool(n):
        return WorkerPool(
            plan_factory=lambda: compile_plan(model, arithmetic="int"),
            workers=n,
            max_batch=8,
            max_wait_ms=2.0,
            queue_size=max(64, n_req),
            metrics=ServeMetrics(),
        )

    results: dict[int, dict] = {}
    failures: list[str] = []
    for n in sorted({1, workers}):
        with make_pool(n) as pool:
            # Warm-up pass, then the measured burst.
            outs, _ = _pool_load(pool, samples[: min(8, n_req)])
            outs, elapsed = _pool_load(pool, samples)
            if not all(np.array_equal(o, r) for o, r in zip(outs, ref)):
                failures.append(
                    f"{n}-worker outputs differ from the integer plan"
                )
            p50, p99 = _request_percentiles(pool.metrics)
            results[n] = {
                "req_per_s": n_req / elapsed,
                "p50_ms": p50,
                "p99_ms": p99,
            }

    base = results[1]["req_per_s"]
    top = results[workers]
    scaling = top["req_per_s"] / base if base else float("nan")
    if gated and workers > 1:
        if scaling < SCALING_FRACTION * workers:
            failures.append(
                f"scaling {scaling:.2f}x < {SCALING_FRACTION * workers:.2f}x "
                f"for {workers} workers"
            )
        if not (top["p99_ms"] <= 30.0 * max(top["p50_ms"], 1.0)):
            failures.append(
                f"burst p99 unbounded: {top['p99_ms']:.1f}ms vs "
                f"p50 {top['p50_ms']:.1f}ms"
            )

    lines = [
        f"worker-pool serve benchmark (LeNet {image_size}x{image_size}, "
        f"{multiplier_name}, integer plan, {n_req} requests, "
        f"{cores} core(s))",
        "outputs verified bit-identical to the integer plan",
    ]
    for n, r in sorted(results.items()):
        lines.append(
            f"  {n} worker(s): {r['req_per_s']:8.1f} req/s  "
            f"p50={r['p50_ms']:.2f}ms p99={r['p99_ms']:.2f}ms"
        )
    lines.append(
        f"  scaling {workers}w/1w: {scaling:.2f}x "
        + (f"(gate >= {SCALING_FRACTION * workers:.2f}x)"
           if gated and workers > 1
           else f"(gate skipped: {cores} core(s) < {workers} workers)")
    )
    text = "\n".join(lines)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serve_workers.txt").write_text(text + "\n")
    payload = {
        "bench": "serve_workers",
        "model": f"lenet{image_size}",
        "multiplier": multiplier_name,
        "arithmetic": "int",
        "requests": n_req,
        "cores": cores,
        "workers": {str(n): r for n, r in sorted(results.items())},
        "scaling_vs_one": scaling,
        "scaling_gate_applied": bool(gated and workers > 1),
        "failures": failures,
    }
    (REPO_ROOT / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("OK: worker-pool serving gates passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small model, exactness checks only (no timing assertion)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run the worker-pool benchmark with this many worker "
             "threads instead of the single-plan benchmark",
    )
    args = parser.parse_args(argv)

    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        return workers_main(args)

    if args.quick:
        image_size, repeats, burst = 12, args.repeats or 3, 8
    else:
        image_size, repeats, burst = 24, args.repeats or 20, 16

    multiplier_name = "mul8u_1DMU"
    model = build_frozen_model(image_size, multiplier_name)
    plan = compile_plan(model)
    rng = np.random.default_rng(7)
    x1 = rng.standard_normal((1, 3, image_size, image_size))
    xb = rng.standard_normal((burst, 3, image_size, image_size))

    def tape_forward(x):
        with no_grad():
            return model(Tensor(x)).data

    assert np.array_equal(plan.run(x1), tape_forward(x1)), "single mismatch"
    assert np.array_equal(plan.run(xb), tape_forward(xb)), "batch mismatch"

    # Integer-only plan: bit-identity gate + structural integer-core walk.
    # compile_plan fuses gather->requant[->relu] runs by default; the
    # fuse=False plan is the unfused baseline the fusion gate runs against.
    int_plan = compile_plan(model, arithmetic="int")
    assert_integer_core(int_plan)
    assert int_plan.fused_ops > 0, "int plan should fuse by default"
    assert np.array_equal(int_plan.run(x1), plan.run(x1)), "int plan single"
    assert np.array_equal(int_plan.run(xb), plan.run(xb)), "int plan batch"

    unfused_plan = compile_plan(model, arithmetic="int", fuse=False)
    assert unfused_plan.fused_ops == 0
    ref_1, ref_b = int_plan.run(x1), int_plan.run(xb)
    assert np.array_equal(unfused_plan.run(xb), ref_b), "unfused batch"

    # Bit-identity matrix: {C backend, numpy fallback} x {1, 4 threads},
    # fused and unfused plans against the same reference outputs.
    from repro.core import execcore

    for threads in ("1", "4"):
        os.environ["REPRO_LUTKERNEL_THREADS"] = threads
        try:
            assert np.array_equal(int_plan.run(x1), ref_1), \
                f"fused C threads={threads} single"
            assert np.array_equal(int_plan.run(xb), ref_b), \
                f"fused C threads={threads} batch"
            os.environ["REPRO_NO_CCKERNEL"] = "1"
            execcore.reset_backend_state()
            try:
                assert np.array_equal(int_plan.run(xb), ref_b), \
                    f"fused numpy threads={threads} batch"
                assert np.array_equal(unfused_plan.run(xb), ref_b), \
                    f"unfused numpy threads={threads} batch"
            finally:
                del os.environ["REPRO_NO_CCKERNEL"]
                execcore.reset_backend_state()
        finally:
            del os.environ["REPRO_LUTKERNEL_THREADS"]

    tape_s, plan_s, speedup = _paired_best(
        lambda: tape_forward(x1), lambda: plan.run(x1), repeats
    )
    tape_ms, plan_ms = tape_s * 1e3, plan_s * 1e3

    float_s, int_s, int_ratio = _paired_best(
        lambda: plan.run(x1), lambda: int_plan.run(x1), repeats
    )
    int_ms = int_s * 1e3

    unfused_s, fused_s, fused_ratio = _paired_best(
        lambda: unfused_plan.run(x1), lambda: int_plan.run(x1), repeats
    )
    fused_ms, unfused_ms = fused_s * 1e3, unfused_s * 1e3

    # Micro-batching: a burst of single-sample requests executed one at a
    # time vs coalesced through the scheduler into one plan call.
    serial_ms = _best_of(
        lambda: [plan.run(xb[i : i + 1]) for i in range(burst)], repeats
    ) * 1e3
    with WorkerPool(
        lambda: compile_plan(model),
        workers=1, max_batch=burst, max_wait_ms=50.0,
    ) as pool:
        def burst_through_pool():
            futures = [pool.submit(xb[i]) for i in range(burst)]
            return [f.result(timeout=60.0) for f in futures]

        outs = burst_through_pool()
        ref = tape_forward(xb)
        assert all(np.array_equal(o, r) for o, r in zip(outs, ref)), \
            "pool output mismatch"
        pool_ms = _best_of(burst_through_pool, repeats) * 1e3
        coalesced = pool.metrics.batch_size_histogram

    batch_win = serial_ms / pool_ms
    lines = [
        f"serve benchmark (LeNet {image_size}x{image_size}, "
        f"{multiplier_name}, best of {repeats})",
        "plan outputs verified bit-identical to the eval-mode tape forward",
        f"  single-sample tape forward : {tape_ms:8.2f} ms",
        f"  single-sample compiled plan: {plan_ms:8.2f} ms  "
        f"({speedup:.2f}x faster, median of {repeats} interleaved pairs)",
        f"  single-sample integer plan : {int_ms:8.2f} ms  "
        f"({int_ratio:.2f}x vs float plan, integer core verified, "
        f"bit-identical outputs)",
        f"  single-sample unfused int  : {unfused_ms:8.2f} ms  "
        f"(fused plan {fused_ratio:.2f}x faster; bit-identical on C and "
        f"numpy backends, threads 1 and 4)",
        f"  {burst}-request burst, serial : {serial_ms:8.2f} ms",
        f"  {burst}-request burst, pooled : {pool_ms:8.2f} ms  "
        f"({batch_win:.2f}x, coalesced batches {coalesced})",
    ]
    text = "\n".join(lines)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serve.txt").write_text(text + "\n")

    if not args.quick:
        if speedup < 2.0:
            print(
                f"FAIL: compiled-plan single-sample speedup "
                f"{speedup:.2f}x < 2.0x",
                file=sys.stderr,
            )
            return 1
        print(f"OK: compiled-plan single-sample speedup {speedup:.2f}x (>= 2.0x)")
        # Per-sample latency of the integer plan must be no worse than the
        # float-scale plan (0.9x margin absorbs timer noise: the int plan
        # replaces per-layer float quantize/dequantize with the fixed-point
        # requant, so it should never lose).
        if int_ratio < 0.9:
            print(
                f"FAIL: integer plan is slower than the float plan "
                f"(median pairwise ratio {int_ratio:.2f}x < 0.9x)",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: integer plan per-sample latency no worse than float "
            f"plan ({int_ratio:.2f}x)"
        )
        # Fusion gate: one C loop for gather+requant+relu must beat the
        # unfused op-at-a-time pipeline by >= 1.5x on a single sample.
        if fused_ratio < 1.5:
            print(
                f"FAIL: fused integer plan speedup {fused_ratio:.2f}x "
                f"< 1.5x vs the unfused plan",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: fused integer plan single-sample speedup "
            f"{fused_ratio:.2f}x (>= 1.5x vs unfused)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

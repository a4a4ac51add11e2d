"""Microbenchmark: tracing overhead and disabled-path bit-identity.

Gates the two :mod:`repro.obs` acceptance criteria:

1. **Bit-identity.**  A forward+backward pass through an approximate layer
   stack produces byte-identical outputs and gradients with tracing
   disabled, enabled, and disabled again (the autograd patch-out must fully
   restore the original ops).
2. **Disabled overhead.**  With tracing disabled, the instrumented build's
   fwd+bwd wall-clock stays within 5% of itself across interleaved runs --
   i.e. the ``if tracer.enabled`` guards in the hot loops are free in the
   noise.  (The pre-instrumentation baseline no longer exists in-tree, so
   the gate compares interleaved medians of the same binary, which bounds
   the *measurable* cost of the guards plus run-to-run noise.)

With ``--serve`` the same two criteria are checked for request tracing
on the serving stack: a 2-thread :class:`~repro.serve.pool.WorkerPool`
must produce bit-identical outputs with tracing off, on, and off again,
the traced run's :func:`~repro.obs.export.latency_report` must cover
every request, and the traced p50 request latency must stay within 5% of
the untraced p50 (interleaved medians; timing gate skipped under
--smoke).

Run standalone (the CI smoke job does exactly this)::

    python benchmarks/bench_obs.py --smoke           # identity only
    python benchmarks/bench_obs.py                   # + < 5% overhead gate
    python benchmarks/bench_obs.py --smoke --serve   # + serving identity

Results are printed and written to ``benchmarks/results/obs.txt``.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.autograd import Tensor  # noqa: E402
from repro.data import DataLoader, SyntheticImageDataset  # noqa: E402
from repro.models import LeNet  # noqa: E402
from repro.multipliers.registry import get_multiplier  # noqa: E402
from repro.nn.losses import cross_entropy  # noqa: E402
from repro.obs.trace import get_tracer  # noqa: E402
from repro.retrain.convert import approximate_model, calibrate, freeze  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def build_workload(n_train: int, image_size: int, batch: int):
    """Approximate LeNet + one batch; returns (step, snapshot) callables."""
    train = SyntheticImageDataset(n_train, 4, image_size, seed=9, split="train")
    model = approximate_model(
        LeNet(num_classes=4, image_size=image_size, seed=9),
        get_multiplier("mul6u_rm4"),
        gradient_method="difference",
        hws=2,
    )
    calibrate(model, DataLoader(train, batch_size=batch), batches=1)
    freeze(model)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, 3, image_size, image_size))
    y = rng.integers(0, 4, size=batch)

    def step():
        model.zero_grad()
        loss = cross_entropy(model(Tensor(x)), y)
        loss.backward()
        return loss

    def snapshot():
        model.zero_grad()
        out = model(Tensor(x))
        loss = cross_entropy(out, y)
        loss.backward()
        return (
            out.data.copy(),
            float(loss.data),
            [p.grad.copy() for p in model.parameters()],
        )

    return step, snapshot


def check_bit_identity(snapshot) -> None:
    tracer = get_tracer()
    tracer.disable()
    out_off, loss_off, grads_off = snapshot()
    tracer.reset()
    tracer.enable()
    try:
        out_on, loss_on, grads_on = snapshot()
    finally:
        tracer.disable()
    out_off2, loss_off2, grads_off2 = snapshot()

    for label, (a, b) in {
        "enabled": (out_on, out_off),
        "re-disabled": (out_off2, out_off),
    }.items():
        assert np.array_equal(a, b), f"forward output changed ({label})"
    assert loss_on == loss_off and loss_off2 == loss_off, "loss changed"
    for g_off, g_on, g_off2 in zip(grads_off, grads_on, grads_off2):
        assert np.array_equal(g_off, g_on), "gradient changed (enabled)"
        assert np.array_equal(g_off, g_off2), "gradient changed (re-disabled)"


def measure_overhead(step, rounds: int, reps: int):
    """Interleaved A/B timing of the same disabled-tracing step.

    Returns (median_a_s, median_b_s, overhead_fraction).  Interleaving A
    and B rounds cancels drift (thermal, page cache, allocator state) that
    a sequential A-then-B comparison would misread as overhead.
    """
    get_tracer().disable()
    step()  # warm caches / engine scratch before timing

    def timed():
        t0 = time.perf_counter()
        for _ in range(reps):
            step()
        return (time.perf_counter() - t0) / reps

    a_times, b_times = [], []
    for _ in range(rounds):
        a_times.append(timed())
        b_times.append(timed())
    med_a = statistics.median(a_times)
    med_b = statistics.median(b_times)
    overhead = abs(med_b - med_a) / med_a
    return med_a, med_b, overhead


def build_serve_model(image_size: int):
    """Calibrated + frozen approximate LeNet for the serving bench."""
    train = SyntheticImageDataset(48, 4, image_size, seed=9, split="train")
    model = approximate_model(
        LeNet(num_classes=4, image_size=image_size, seed=9),
        get_multiplier("mul6u_rm4"),
        gradient_method="difference",
        hws=2,
        include_linear=True,
    )
    calibrate(model, DataLoader(train, batch_size=16), batches=1)
    freeze(model)
    model.eval()
    return model


def run_serve_once(model, x, traced: bool):
    """One 2-thread WorkerPool run.

    Returns ``(outputs, p50_request_ms, report_requests)``; the last is
    the request count :func:`stage_breakdown` finds in the traced run's
    Chrome trace (``None`` untraced).
    """
    from repro.obs.export import chrome_trace, stage_breakdown
    from repro.serve import WorkerPool, compile_plan

    tracer = get_tracer()
    if traced:
        tracer.reset()
        tracer.enable()
    else:
        tracer.disable()
    pool = WorkerPool(
        lambda: compile_plan(model, arithmetic="int"),
        workers=2, max_batch=4, max_wait_ms=1.0, queue_size=128,
    ).start()
    try:
        futures = [pool.submit(s) for s in x]
        outs = [f.result(timeout=120.0) for f in futures]
        p50 = pool.metrics.as_dict()["latency"]["request_ms"]["p50_ms"]
    finally:
        pool.shutdown(drain=True)
        tracer.disable()
    covered = None
    if traced:
        covered = stage_breakdown(chrome_trace(tracer))["n_requests"]
    return np.stack(outs), float(p50), covered


def bench_serve(smoke: bool, rounds: int) -> tuple[list[str], float]:
    """Serving identity check + traced-p50 overhead estimate."""
    from repro.serve import compile_plan

    image_size = 12
    n = 16 if smoke else 48
    model = build_serve_model(image_size)
    x = np.random.default_rng(2).standard_normal(
        (n, 3, image_size, image_size)
    )
    ref = compile_plan(model, arithmetic="int").run(x)

    # Identity: off, on, off again -- all byte-equal.
    off_p50s, on_p50s = [], []
    for round_idx in range(max(rounds, 1)):
        outs_off, p50_off, _ = run_serve_once(model, x, traced=False)
        outs_on, p50_on, covered = run_serve_once(model, x, traced=True)
        assert covered == n, (
            f"latency report covers {covered} of {n} requests"
        )
        if round_idx == 0:
            assert np.array_equal(outs_off, ref), "untraced pool diverged"
            assert np.array_equal(outs_on, ref), (
                "traced pool diverged from untraced outputs"
            )
            outs_off2, _, _ = run_serve_once(model, x, traced=False)
            assert np.array_equal(outs_off2, ref), (
                "pool diverged after tracing was turned off again"
            )
        off_p50s.append(p50_off)
        on_p50s.append(p50_on)
    med_off = statistics.median(off_p50s)
    med_on = statistics.median(on_p50s)
    overhead = (med_on - med_off) / med_off if med_off > 0 else 0.0
    return [
        f"serving (2 worker threads, {n} requests x {max(rounds, 1)} "
        "rounds, interleaved traced/untraced)",
        "bit-identity verified: pool outputs identical with tracing "
        "off, on, and off again",
        f"latency report covers all {n} requests of every traced run",
        f"request p50 untraced {med_off:8.3f} ms",
        f"request p50 traced   {med_on:8.3f} ms",
        f"traced p50 overhead estimate {overhead * 100.0:+5.2f}%",
    ], overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny shapes, bit-identity checks only (no timing gate)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also bench a 2-thread WorkerPool with request tracing "
             "(bit-identity and report coverage always; p50 gate unless "
             "--smoke)",
    )
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--reps", type=int, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        n_train, image_size, batch = 32, 12, 8
        rounds, reps = args.rounds or 2, args.reps or 1
    else:
        n_train, image_size, batch = 64, 16, 32
        rounds, reps = args.rounds or 7, args.reps or 3

    step, snapshot = build_workload(n_train, image_size, batch)
    check_bit_identity(snapshot)
    med_a, med_b, overhead = measure_overhead(step, rounds, reps)

    lines = [
        f"tracing overhead microbenchmark (LeNet/{image_size}px, "
        f"batch={batch}, {rounds} rounds x {reps} reps, tracing disabled)",
        "bit-identity verified: outputs/loss/grads identical with tracing "
        "off, on, and off again",
        f"fwd+bwd median A {med_a * 1e3:8.2f} ms",
        f"fwd+bwd median B {med_b * 1e3:8.2f} ms",
        f"disabled-path overhead estimate {overhead * 100.0:5.2f}%",
    ]
    serve_overhead = None
    if args.serve:
        serve_rounds = 1 if args.smoke else (args.rounds or 5)
        serve_lines, serve_overhead = bench_serve(args.smoke, serve_rounds)
        lines += [""] + serve_lines

    text = "\n".join(lines)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "obs.txt").write_text(text + "\n")

    failed = False
    if not args.smoke and overhead >= 0.05:
        print(
            f"FAIL: disabled-tracing overhead {overhead * 100.0:.2f}% >= 5%",
            file=sys.stderr,
        )
        failed = True
    if not args.smoke and serve_overhead is not None and serve_overhead >= 0.05:
        print(
            f"FAIL: traced serve p50 overhead "
            f"{serve_overhead * 100.0:.2f}% >= 5%",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    if not args.smoke:
        print(f"OK: disabled-tracing overhead {overhead * 100.0:.2f}% (< 5%)")
        if serve_overhead is not None:
            print(f"OK: traced serve p50 overhead "
                  f"{serve_overhead * 100.0:+.2f}% (< 5%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

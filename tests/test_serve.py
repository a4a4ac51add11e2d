"""Tests for the repro.serve inference runtime.

Covers the full stack: plan compilation bit-identity against the eval-mode
training-graph forward, the forward-only engine mode, micro-batch
coalescing, worker-pool backpressure, the HTTP endpoint, metrics, the
atomic checkpoint save, and the CLI additions.
"""

import json
import math
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.tensor import no_grad
from repro.data import DataLoader, SyntheticImageDataset
from repro.errors import ReproError, ServeError, ServerBusyError
from repro.models import LeNet
from repro.multipliers import get_multiplier
from repro.retrain.checkpoint import load_checkpoint, save_checkpoint
from repro.retrain.convert import approximate_model, calibrate, freeze
from repro.retrain.trainer import TrainConfig, Trainer
from repro.serve import (
    MicroBatcher,
    PlanOp,
    ServeMetrics,
    WorkerPool,
    compile_plan,
    install_shutdown_handlers,
    make_server,
    verify_plan,
)
from repro.obs.telemetry import RING_SIZE, HistogramCell
from repro.serve.metrics import latency_summary


@pytest.fixture(scope="module")
def retrained(tmp_path_factory):
    """Retrained approximate LeNet + checkpoint + eval-mode reference."""
    train = SyntheticImageDataset(96, 4, 12, seed=11, split="train")
    model = LeNet(num_classes=4, image_size=12, seed=11)
    Trainer(model, TrainConfig(epochs=1, batch_size=32, seed=11)).fit(train)
    approx = approximate_model(
        model, get_multiplier("mul6u_rm4"),
        gradient_method="difference", hws=2, include_linear=True,
    )
    calibrate(approx, DataLoader(train, batch_size=32), batches=2)
    freeze(approx)
    Trainer(approx, TrainConfig(epochs=1, batch_size=32, seed=11)).fit(train)
    approx.eval()
    path = tmp_path_factory.mktemp("ckpt") / "lenet.npz"
    save_checkpoint(approx, path)
    x = np.random.default_rng(3).standard_normal((6, 3, 12, 12))
    with no_grad():
        ref = approx(Tensor(x)).data
    return approx, path, x, ref


@pytest.fixture(scope="module")
def served_model(retrained):
    """Fresh forward-only model loaded from the checkpoint."""
    _approx, path, _x, _ref = retrained
    fresh = approximate_model(
        LeNet(num_classes=4, image_size=12, seed=0),
        get_multiplier("mul6u_rm4"),
        gradient_method="none", include_linear=True,
    )
    load_checkpoint(fresh, path)
    fresh.eval()
    return fresh


# ---------------------------------------------------------------------------
# Plan compilation / bit-identity
# ---------------------------------------------------------------------------

def test_plan_bit_identical_to_eval_forward(retrained):
    approx, _path, x, ref = retrained
    plan = compile_plan(approx, example_input=x)
    assert np.array_equal(plan.run(x), ref)


def test_plan_bit_identical_single_sample(retrained):
    approx, _path, x, ref = retrained
    plan = compile_plan(approx)
    assert np.array_equal(plan.run(x[:1]), ref[:1])


def test_forward_only_checkpoint_load_bit_identical(retrained, served_model):
    _approx, _path, x, ref = retrained
    plan = compile_plan(served_model, example_input=x)
    assert np.array_equal(plan.run(x), ref)


def test_forward_only_layers_reject_backward(served_model):
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 12, 12)))
    out = served_model(x)
    with pytest.raises(ReproError, match="forward-only"):
        out.sum().backward()


def test_private_engines_are_separate_instances(served_model):
    plan_a = compile_plan(served_model, private_engines=True)
    plan_b = compile_plan(served_model, private_engines=True)
    shared = compile_plan(served_model)
    x = np.random.default_rng(4).standard_normal((2, 3, 12, 12))
    assert np.array_equal(plan_a.run(x), shared.run(x))
    assert np.array_equal(plan_b.run(x), shared.run(x))


def test_verify_plan_accepts_and_describe(served_model):
    x = np.random.default_rng(5).standard_normal((2, 3, 12, 12))
    plan = compile_plan(served_model)
    verify_plan(plan, served_model, x)
    text = plan.describe()
    assert "lutgemm" in text and "LeNet" in text


def test_verify_plan_shape_mismatch_raises_structured_error(served_model):
    """A shape mismatch must name the op and both shapes, never nan-diff.

    Previously ``verify_plan`` computed ``np.max(np.abs(ref - got))`` on
    broadcast-incompatible... compatible-but-different shapes and reported
    ``max |delta| = nan`` with no hint of where the plan diverged.
    """
    from repro.errors import PlanShapeError
    from repro.serve.plan import PlanOp

    x = np.random.default_rng(6).standard_normal((2, 3, 12, 12))
    plan = compile_plan(served_model)
    # Break the last op so the plan emits a transposed output.
    bad = compile_plan(served_model)
    bad.ops = list(bad.ops) + [
        PlanOp("oops.transpose", "shape", lambda y: y.T)
    ]
    with pytest.raises(PlanShapeError) as err:
        verify_plan(bad, served_model, x)
    assert err.value.op_name == "oops.transpose"
    assert err.value.ref_shape != err.value.plan_shape
    assert "oops.transpose" in str(err.value)
    assert str(err.value.ref_shape) in str(err.value)
    # The structured error is a ServeError too (existing handlers catch it).
    assert isinstance(err.value, ServeError)
    # And the intact plan still verifies.
    verify_plan(plan, served_model, x)


def test_plan_gap_bit_identical_to_tape_for_crafted_hw():
    """The plan's GAP op must use the graph's sum * (1/HW) expression.

    For HW counts where ``x * (1/HW)`` and ``x / HW`` round differently
    (any HW whose reciprocal is inexact, e.g. 49), a division-based plan
    op drifts by 1 ulp and breaks bit-identity.  This fails against the
    old ``np.mean``-style lowering.
    """
    from repro.nn.layers import GlobalAvgPool2d, Sequential

    model = Sequential(GlobalAvgPool2d())
    model.eval()
    rng = np.random.default_rng(0)
    # 7x7 spatial: 1/49 is not a power of two, so sum * (1/49) and
    # sum / 49 disagree in the last ulp for many sums.
    x = rng.standard_normal((4, 3, 7, 7))
    with no_grad():
        ref = model(Tensor(x)).data
    plan = compile_plan(model)
    got = plan.run(x)
    assert np.array_equal(got, ref)
    # Sanity: the two expressions really do differ for this data (the
    # test would be vacuous on inputs where they happen to agree).
    s = x.sum(axis=(2, 3))
    assert not np.array_equal(s * (1.0 / 49.0), s / 49.0)


def test_plan_bit_identical_without_c_kernel(retrained, monkeypatch):
    """With the fused C kernel unavailable the numpy fallback must match."""
    import repro.core.lutkernel as lutkernel

    approx, _path, x, ref = retrained
    monkeypatch.setattr(lutkernel, "fused_product_sums", lambda *a: None)
    plan = compile_plan(approx, private_engines=True)
    assert np.array_equal(plan.run(x), ref)


def test_compile_requires_frozen_quant():
    approx = approximate_model(
        LeNet(num_classes=4, image_size=12, seed=0),
        get_multiplier("mul6u_rm4"), gradient_method="none",
    )
    with pytest.raises(ReproError):
        compile_plan(approx)


# ---------------------------------------------------------------------------
# Micro-batching scheduler
# ---------------------------------------------------------------------------

def test_microbatcher_coalesces_under_load():
    metrics = ServeMetrics()
    batcher = MicroBatcher(max_batch=4, max_wait_ms=50.0, capacity=16,
                           metrics=metrics)
    for i in range(6):
        batcher.submit(np.array([float(i)]))
    first = batcher.next_batch(timeout=1.0)
    batcher.task_done()
    second = batcher.next_batch(timeout=1.0)
    batcher.task_done()
    assert [len(first), len(second)] == [4, 2]
    assert metrics.batch_size_histogram == {4: 1, 2: 1}
    # FIFO order is preserved through coalescing.
    values = [p.payload[0] for p in first + second]
    assert values == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_microbatcher_idle_fast_path():
    batcher = MicroBatcher(max_batch=8, max_wait_ms=10_000.0, capacity=16)
    batcher.submit(np.zeros(1))
    start = time.perf_counter()
    batch = batcher.next_batch(timeout=1.0)
    elapsed = time.perf_counter() - start
    batcher.task_done()
    assert len(batch) == 1
    assert elapsed < 1.0  # did not sit out the 10s coalescing window


def test_microbatcher_capacity_rejects():
    metrics = ServeMetrics()
    batcher = MicroBatcher(max_batch=4, capacity=2, metrics=metrics)
    batcher.submit(np.zeros(1))
    batcher.submit(np.zeros(1))
    with pytest.raises(ServerBusyError):
        batcher.submit(np.zeros(1))
    assert metrics.counter("rejected_total") == 1
    assert metrics.counter("requests_total") == 2


def test_microbatcher_close_rejects_submit_and_unblocks_workers():
    batcher = MicroBatcher()
    batcher.close()
    with pytest.raises(ServeError):
        batcher.submit(np.zeros(1))
    assert batcher.next_batch(timeout=0.5) is None


def test_pending_request_timeout_and_error():
    batcher = MicroBatcher()
    pending = batcher.submit(np.zeros(1))
    with pytest.raises(ServeError, match="timed out"):
        pending.result(timeout=0.01)
    pending.set_error(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        pending.result(timeout=1.0)


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

def test_pool_results_bit_identical(retrained, served_model):
    _approx, _path, x, ref = retrained
    with WorkerPool(
        lambda: compile_plan(served_model, private_engines=True), workers=2
    ) as pool:
        futures = [pool.submit(x[i]) for i in range(len(x))]
        for i, fut in enumerate(futures):
            assert np.array_equal(fut.result(timeout=30.0), ref[i])
        assert pool.metrics.counter("predictions_total") == len(x)


def _probe_plan(model, fn):
    """A compiled plan of ``model`` whose first op is ``fn``."""
    plan = compile_plan(model, private_engines=True)
    plan.ops.insert(0, PlanOp("probe", "float", fn))
    return plan


FRONT_ENDS = pytest.mark.parametrize(
    "front_end", [WorkerPool], ids=["threads"]
)


@FRONT_ENDS
def test_pool_backpressure_sheds_load(served_model, front_end):
    release = threading.Event()

    def wait_for_release(x):
        release.wait(30.0)
        return x

    pool = front_end(lambda: _probe_plan(served_model, wait_for_release),
                     workers=1, max_batch=1, queue_size=2, max_wait_ms=0.0)
    pool.start()
    sample = np.zeros((3, 12, 12))
    futures = []
    try:
        futures.append(pool.submit(sample))
        # Wait until the worker picks up the first request, then fill the
        # queue behind it.
        deadline = time.perf_counter() + 5.0
        while pool.batcher.depth > 0 and time.perf_counter() < deadline:
            time.sleep(0.005)
        with pytest.raises(ServerBusyError):
            for _ in range(16):
                futures.append(pool.submit(sample))
        # One running, two queued.
        assert len(futures) == 3
        assert pool.metrics.counter("rejected_total") == 1
    finally:
        release.set()
        for fut in futures:
            fut.result(timeout=30.0)
        pool.shutdown()


@FRONT_ENDS
def test_pool_propagates_plan_errors(served_model, front_end):
    def kaboom(x):
        raise RuntimeError("kaboom")

    # The caller gets the plan's own exception.
    with front_end(lambda: _probe_plan(served_model, kaboom),
                   workers=1) as pool:
        with pytest.raises(RuntimeError, match="^kaboom$"):
            pool.infer(np.zeros((3, 12, 12)), timeout=30.0)
        assert pool.metrics.counter("errors_total") == 1


def test_pool_start_returns_once_every_worker_has_its_plan():
    class StubPlan:
        def run(self, xs):
            return xs

    def slow_factory():
        time.sleep(0.3)
        return StubPlan()

    t0 = time.perf_counter()
    with WorkerPool(slow_factory, workers=2) as pool:
        started = time.perf_counter()
        assert started - t0 >= 0.3
        # The first request never waits behind a compile.
        pool.infer(np.zeros(1), timeout=30.0)
        assert time.perf_counter() - started < 0.2


def test_pool_start_raises_the_plan_factory_error():
    def broken_factory():
        raise RuntimeError("no plan")

    pool = WorkerPool(broken_factory, workers=2)
    with pytest.raises(RuntimeError, match="^no plan$"):
        pool.start()
    # The pool is stopped: a submit fails at once, not at its timeout.
    with pytest.raises(ServeError, match="not running"):
        pool.submit(np.zeros(1))
    assert pool.alive_workers == 0


def test_pool_shutdown_drains_queued_work():
    class SlowPlan:
        def run(self, xs):
            time.sleep(0.01)
            return xs * 2.0

    pool = WorkerPool(SlowPlan, workers=1, max_batch=1).start()
    futures = [pool.submit(np.full(1, float(i))) for i in range(5)]
    pool.shutdown(drain=True)
    for i, fut in enumerate(futures):
        assert fut.result(timeout=1.0)[0] == 2.0 * i


# ---------------------------------------------------------------------------
# HTTP endpoint
# ---------------------------------------------------------------------------

@pytest.fixture()
def http_server(retrained, served_model):
    metrics = ServeMetrics()
    pool = WorkerPool(
        lambda: compile_plan(served_model, private_engines=True),
        workers=1, metrics=metrics,
    ).start()
    server = make_server(pool, metrics, port=0, model_name="lenet-test")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    pool.shutdown()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def test_http_healthz(http_server):
    status, body = _get(http_server + "/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["model"] == "lenet-test"
    assert body["workers"] == 1


def test_http_predict_single_and_batch(retrained, http_server):
    _approx, _path, x, ref = retrained
    status, body = _post(http_server + "/predict", {"inputs": x[0].tolist()})
    assert status == 200
    assert np.array_equal(np.asarray(body["outputs"][0]), ref[0])
    assert body["predictions"] == [int(np.argmax(ref[0]))]

    status, body = _post(http_server + "/predict", {"inputs": x[:3].tolist()})
    assert status == 200
    assert np.array_equal(np.asarray(body["outputs"]), ref[:3])


def test_http_predict_bad_input(http_server):
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _post(http_server + "/predict", {"wrong": 1})
    assert exc_info.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _post(http_server + "/predict", {"inputs": [1.0, 2.0]})
    assert exc_info.value.code == 400


def test_http_unknown_path_404(http_server):
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        _get(http_server + "/nope")
    assert exc_info.value.code == 404


class _StubPlan:
    def run(self, xs):
        return np.zeros((len(xs), 2))


def test_install_shutdown_handlers_sigterm_stops_serve_loop():
    metrics = ServeMetrics()
    pool = WorkerPool(lambda: _StubPlan(), workers=1, metrics=metrics).start()
    server = make_server(pool, metrics, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    previous = install_shutdown_handlers(server)
    try:
        assert set(previous) == {signal.SIGTERM, signal.SIGINT}
        os.kill(os.getpid(), signal.SIGTERM)
        thread.join(timeout=10.0)
        # serve_forever returned: the caller's drain + close path runs
        # exactly as it does for Ctrl-C.
        assert not thread.is_alive()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        pool.shutdown(drain=False)
        server.server_close()


def test_http_metrics_json_and_text(retrained, http_server):
    _approx, _path, x, _ref = retrained
    _post(http_server + "/predict", {"inputs": x[0].tolist()})
    status, body = _get(http_server + "/metrics")
    assert status == 200
    assert body["counters"]["predictions_total"] >= 1
    assert "request_ms" in body["latency"]
    assert "engine_cache" in body
    # format=text is now a Prometheus-style exposition (obs unification);
    # the old human-readable report moved to format=report.
    with urllib.request.urlopen(http_server + "/metrics?format=text") as resp:
        text = resp.read().decode()
    assert "# TYPE repro_serve_counter counter" in text
    assert 'repro_serve_counter{name="predictions_total"}' in text
    assert "# TYPE repro_latency_ms histogram" in text
    assert 'repro_latency_ms_bucket{series="request_ms",le="+Inf"}' in text
    assert 'repro_engine_cache{stat="entries"}' in text
    # Tracer state rides along on both export paths, even when tracing
    # is off: an operator can tell from one scrape whether spans exist
    # and whether the buffer overflowed.
    assert body["tracer"]["enabled"] is False
    assert body["tracer"]["dropped_spans"] == 0
    assert body["tracer"]["max_spans"] > 0
    assert "repro_trace_enabled 0" in text
    assert "repro_trace_dropped_spans_total 0" in text
    with urllib.request.urlopen(http_server + "/metrics?format=report") as resp:
        report = resp.read().decode()
    assert "serve metrics" in report and "batch sizes" in report


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_latency_histogram_percentiles():
    metrics = ServeMetrics()
    for v in range(1, 101):
        metrics.observe_latency("request_ms", float(v))
    snap = metrics.as_dict()["latency"]["request_ms"]
    assert snap["count"] == 100
    assert snap["min_ms"] == 1.0 and snap["max_ms"] == 100.0
    assert snap["mean_ms"] == 50.5
    assert 49.0 <= snap["p50_ms"] <= 52.0
    assert 94.0 <= snap["p95_ms"] <= 96.0


def test_latency_histogram_reservoir_wraps():
    metrics = ServeMetrics()
    total = RING_SIZE + 100
    for v in range(total):
        metrics.observe_latency("request_ms", float(v))
    snap = metrics.as_dict()["latency"]["request_ms"]
    assert snap["count"] == total  # exact count survives the ring buffer
    assert snap["min_ms"] == 0.0  # and so does the exact minimum
    # Percentiles track the latest RING_SIZE samples: 100 .. total-1.
    recent = np.arange(100, total, dtype=np.float64)
    assert [snap["p50_ms"], snap["p95_ms"], snap["p99_ms"]] == [
        float(v) for v in np.percentile(recent, (50, 95, 99))
    ]


def test_latency_histogram_empty_is_nan():
    """Zero samples must read as "no data" (NaN), not as 0ms latency."""
    snap = latency_summary(HistogramCell(3))
    assert snap["count"] == 0
    for key in ("mean_ms", "min_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms"):
        assert math.isnan(snap[key]), key
    # The NaNs survive the GET /metrics JSON path (json emits NaN tokens).
    assert "NaN" in json.dumps(snap)


def test_metrics_report_handles_empty_histogram():
    metrics = ServeMetrics()
    fam = metrics._latency
    fam._values[("empty_ms",)] = HistogramCell(len(fam.buckets))
    assert "empty_ms: n=0" in metrics.format_report()
    assert "NaN" not in metrics.prometheus_text()


def test_scheduler_remaining_clamps_negative():
    from repro.serve.scheduler import _remaining

    assert _remaining(None) is None
    assert _remaining(time.monotonic() + 10.0) > 9.0
    assert _remaining(time.monotonic() - 10.0) == 0.0


def test_scheduler_never_waits_negative_timeout(monkeypatch):
    """Drive the check-then-wait race deterministically: the clock jumps
    past the deadline between the expiry check and the timeout
    computation.  Condition.wait must still receive a non-negative
    timeout, and next_batch must return None (timed out)."""
    import repro.serve.scheduler as scheduler_mod

    real_monotonic = time.monotonic
    t0 = real_monotonic()
    # Scripted clock: deadline computation and first expiry check see t0,
    # every later read (inside _remaining) sees a time past the deadline.
    reads = {"n": 0}

    def scripted_monotonic():
        reads["n"] += 1
        if reads["n"] <= 2:
            return t0
        return t0 + 10.0

    class FakeTime:
        monotonic = staticmethod(scripted_monotonic)
        perf_counter = staticmethod(time.perf_counter)
        sleep = staticmethod(time.sleep)

    monkeypatch.setattr(scheduler_mod, "time", FakeTime)

    waits = []

    class RecordingCondition(threading.Condition):
        def wait(self, timeout=None):
            waits.append(timeout)
            assert timeout is None or timeout >= 0, (
                f"negative wait timeout: {timeout}"
            )
            return super().wait(0)  # don't actually block the test

    batcher = MicroBatcher(max_batch=4, max_wait_ms=5.0, capacity=8)
    batcher._cond = RecordingCondition()
    assert batcher.next_batch(timeout=0.05) is None
    assert waits, "expected the race to reach Condition.wait"
    assert all(w is not None and w >= 0 for w in waits)


def test_queue_wait_histogram_observed_on_dispatch():
    metrics = ServeMetrics()
    batcher = MicroBatcher(
        max_batch=4, max_wait_ms=0.0, capacity=8, metrics=metrics
    )
    p1 = batcher.submit(np.zeros(1))
    p2 = batcher.submit(np.ones(1))
    batch = batcher.next_batch(timeout=1.0)
    assert len(batch) == 2
    # Dispatch stamps every request (the serve.request span's queue stage
    # reads it) and records its queue wait once, in the latency family.
    assert all(p.dispatched_at >= p.enqueued_at for p in (p1, p2))
    batcher.task_done()
    batcher.close()

    snap = metrics.as_dict()["latency"]["queue_wait_ms"]
    assert snap["count"] == 2
    assert snap["p50_ms"] >= 0.0
    fam = next(f for f in metrics.registry.families()
               if f.name == "repro_latency_ms")
    assert fam.kind == "histogram"
    # histogram value() is the sample count
    assert fam.value(series="queue_wait_ms") == 2
    prom = metrics.prometheus_text()
    assert 'repro_latency_ms_count{series="queue_wait_ms"} 2' in prom
    assert 'repro_latency_ms_bucket{series="queue_wait_ms",le="+Inf"} 2' in prom


def test_metrics_report_and_gauges():
    metrics = ServeMetrics()
    metrics.inc("requests_total", 3)
    metrics.observe_latency("request_ms", 1.5)
    metrics.observe_batch(4)
    metrics.register_gauge("queue_depth", lambda: 7)
    snap = metrics.as_dict()
    assert snap["counters"]["requests_total"] == 3
    assert snap["counters"]["batches_total"] == 1
    assert snap["gauges"]["queue_depth"] == 7
    assert snap["batch_size_histogram"] == {"4": 1}
    assert "queue_depth: 7" in metrics.format_report()


# ---------------------------------------------------------------------------
# Satellites: atomic checkpoint save, CLI --version, trainer timing
# ---------------------------------------------------------------------------

def test_save_checkpoint_atomic_on_failure(tmp_path, retrained, monkeypatch):
    approx, _path, _x, _ref = retrained
    path = tmp_path / "model.npz"
    save_checkpoint(approx, path)
    original = path.read_bytes()

    def explode(*args, **kwargs):
        raise OSError("disk on fire")

    monkeypatch.setattr(np, "savez_compressed", explode)
    with pytest.raises(OSError, match="disk on fire"):
        save_checkpoint(approx, path)
    assert path.read_bytes() == original  # existing checkpoint untouched
    leftovers = [p for p in tmp_path.iterdir() if p.name != "model.npz"]
    assert leftovers == []  # no stray temp files


def test_cli_version(capsys):
    from repro import __version__
    from repro.cli import main

    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_trainer_records_epoch_timing():
    train = SyntheticImageDataset(64, 4, 12, seed=2, split="train")
    model = LeNet(num_classes=4, image_size=12, seed=2)
    history = Trainer(
        model, TrainConfig(epochs=2, batch_size=32, seed=2)
    ).fit(train)
    assert len(history.epoch_time) == 2
    assert len(history.samples_per_sec) == 2
    assert all(t > 0 for t in history.epoch_time)
    assert all(s > 0 for s in history.samples_per_sec)

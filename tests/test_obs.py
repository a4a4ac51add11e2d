"""Tests for the repro.obs tracing/profiling layer.

Covers the tracer core (null span when disabled, nesting and self-time
attribution, counters, bounded span buffer), the autograd patch-in/patch-out
hooks, the three exporters (Chrome trace, text table, Prometheus text),
the offline trace merge and per-stage request latency report behind
``repro trace`` (including a traced worker pool end to end), and the
acceptance-criteria bit-identity of traced vs untraced numerics.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data import DataLoader, SyntheticImageDataset
from repro.models import LeNet
from repro.multipliers import get_multiplier
from repro.nn.losses import cross_entropy
from repro.obs.export import (
    chrome_trace,
    format_table,
    latency_report,
    load_trace_file,
    merge_chrome_traces,
    prometheus_text,
    stage_breakdown,
)
from repro.obs.hooks import (
    install_tensor_tracing,
    tensor_tracing_installed,
    uninstall_tensor_tracing,
)
from repro.obs.trace import Tracer, get_tracer, tracing
from repro.retrain.convert import approximate_model, calibrate, freeze
from repro.serve import WorkerPool, compile_plan
from repro.serve.metrics import ServeMetrics


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    """Every test starts and ends with the global tracer off and empty."""
    t = get_tracer()
    t.disable()
    t.reset()
    yield
    t.disable()
    t.reset()


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------

def test_disabled_tracer_records_nothing():
    t = Tracer()
    with t.span("work", cat="test"):
        pass
    t.count("events")
    t.record("late", 0.5)
    t.add_time("agg", 0.5)
    assert t.spans() == []
    assert t.stats() == {}
    assert t.counters() == {}


def test_disabled_span_is_shared_noop():
    t = Tracer()
    assert t.span("a") is t.span("b")  # single shared _NullSpan instance


def test_span_nesting_attributes_self_time():
    t = Tracer()
    t.enabled = True
    with t.span("outer", cat="test"):
        time.sleep(0.002)
        with t.span("inner", cat="test"):
            time.sleep(0.004)
    stats = t.stats()
    outer = stats[("outer", "test")]
    inner = stats[("inner", "test")]
    assert outer.calls == 1 and inner.calls == 1
    assert outer.total_s >= inner.total_s
    # outer's self time excludes inner's duration
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s,
                                         rel=0.25, abs=2e-3)


def test_span_survives_exception():
    t = Tracer()
    t.enabled = True
    with pytest.raises(ValueError):
        with t.span("boom", cat="test"):
            raise ValueError("x")
    assert t.stats()[("boom", "test")].calls == 1
    assert t._stack() == []  # stack fully unwound


def test_counters_and_record_and_add_time():
    t = Tracer()
    t.enabled = True
    t.count("widgets")
    t.count("widgets", 4)
    t.record("offline", 0.25, cat="test", args={"k": 1})
    t.add_time("agg", 0.5, cat="test")
    t.add_time("agg", 0.5, cat="test")
    assert t.counters() == {"widgets": 5}
    spans = t.spans()
    assert len(spans) == 1  # add_time emits no raw span
    assert spans[0].name == "offline"
    assert spans[0].dur == pytest.approx(0.25)
    agg = t.stats()[("agg", "test")]
    assert agg.calls == 2 and agg.total_s == pytest.approx(1.0)


def test_span_buffer_bounded():
    t = Tracer(max_spans=3)
    t.enabled = True
    for i in range(5):
        with t.span("s", cat="test"):
            pass
    assert len(t.spans()) == 3
    assert t.dropped == 2
    assert t.stats()[("s", "test")].calls == 5  # aggregates keep counting


def test_reset_clears_everything():
    t = Tracer()
    t.enabled = True
    with t.span("s"):
        pass
    t.count("c")
    t.reset()
    assert t.spans() == [] and t.stats() == {} and t.counters() == {}
    assert t.dropped == 0


def test_spans_are_thread_aware():
    t = Tracer()
    t.enabled = True

    def work():
        with t.span("threaded", cat="test"):
            pass

    th = threading.Thread(target=work)
    th.start()
    th.join()
    with t.span("mainline", cat="test"):
        pass
    tids = {s.tid for s in t.spans()}
    assert len(tids) == 2


def test_tracing_context_manager_restores_state():
    t = get_tracer()
    assert not t.enabled
    with tracing() as tr:
        assert tr is t and t.enabled
        with t.span("inside"):
            pass
    assert not t.enabled
    assert t.stats()  # collected data survives exit


# ---------------------------------------------------------------------------
# Autograd hooks (patch-in / patch-out)
# ---------------------------------------------------------------------------

def test_hooks_install_uninstall_restore_originals():
    original_add = Tensor.__dict__["__add__"]
    install_tensor_tracing()
    assert tensor_tracing_installed()
    assert Tensor.__dict__["__add__"] is not original_add
    uninstall_tensor_tracing()
    assert not tensor_tracing_installed()
    assert Tensor.__dict__["__add__"] is original_add


def test_enable_disable_toggle_hooks():
    t = get_tracer()
    t.enable()
    assert tensor_tracing_installed()
    t.disable()
    assert not tensor_tracing_installed()


def test_autograd_ops_emit_named_spans():
    t = get_tracer()
    with tracing():
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = (x * 2.0 + 1.0).relu().sum()
        y.backward()
    names = {s.name for s in t.spans()}
    assert "autograd.mul.forward" in names
    assert "autograd.add.forward" in names
    assert "autograd.relu.forward" in names
    assert "autograd.sum.forward" in names
    assert any(n.endswith(".backward") for n in names)


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def _collect_some_spans(t):
    with t.span("outer", cat="test", args={"k": "v"}):
        with t.span("inner", cat="test"):
            pass
    t.count("things", 3)


def test_chrome_trace_round_trips_and_names_spans():
    t = Tracer()
    t.enabled = True
    _collect_some_spans(t)
    doc = json.loads(json.dumps(chrome_trace(t)))
    names = {e["name"] for e in doc["traceEvents"]}
    assert names == {"outer", "inner"}
    for e in doc["traceEvents"]:
        assert e["ph"] == "X"
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
    outer = next(e for e in doc["traceEvents"] if e["name"] == "outer")
    assert outer["args"] == {"k": "v"}
    assert doc["otherData"]["counters"] == {"things": 3}
    assert doc["otherData"]["dropped_spans"] == 0


def test_format_table_sorts_and_limits():
    t = Tracer()
    t.enabled = True
    t.add_time("slow", 1.0, cat="test")
    t.add_time("fast", 0.1, cat="test")
    t.add_time("fast", 0.1, cat="test")
    table = format_table(t, sort="self")
    body = table.splitlines()[2:]
    assert body[0].startswith("slow")
    by_calls = format_table(t, sort="calls")
    assert by_calls.splitlines()[2].startswith("fast")
    limited = format_table(t, sort="self", top=1)
    assert "... 1 more span name(s)" in limited
    with pytest.raises(ValueError):
        format_table(t, sort="nope")


def test_prometheus_text_unifies_serve_and_trace():
    t = Tracer()
    t.enabled = True
    _collect_some_spans(t)
    metrics = ServeMetrics()
    metrics.inc("requests_total", 7)
    metrics.observe_latency("request_ms", 1.5)
    metrics.observe_batch(4)
    text = prometheus_text(metrics, t)
    assert text.endswith("\n")
    assert "# TYPE repro_serve_counter counter" in text
    assert 'repro_serve_counter{name="requests_total"} 7' in text
    assert "# TYPE repro_latency_ms histogram" in text
    assert 'repro_latency_ms_bucket{series="request_ms",le="1"} 0' in text
    assert 'repro_latency_ms_bucket{series="request_ms",le="2.5"} 1' in text
    assert 'repro_latency_ms_sum{series="request_ms"} 1.5' in text
    assert 'repro_latency_ms_count{series="request_ms"} 1' in text
    assert 'repro_batch_size_total{size="4"} 1' in text
    assert 'repro_engine_cache{stat="entries"}' in text
    assert 'repro_trace_counter{name="things"} 3' in text
    assert 'repro_trace_span_calls_total{span="outer"} 1' in text
    assert 'repro_trace_span_seconds_total{span="inner"}' in text


def test_prometheus_text_empty_still_reports_tracer_state():
    # Even with no metrics/spans collected, the exposition answers "is
    # tracing on, how big is the buffer, did it drop anything?".
    text = prometheus_text(None, Tracer())
    assert "repro_trace_enabled 0" in text
    assert "repro_trace_max_spans 200000" in text
    assert "repro_trace_dropped_spans_total 0" in text

    on = Tracer(max_spans=1)
    on.enabled = True
    on.record("a", 0.001)
    on.record("b", 0.001)  # buffer full: dropped
    text = prometheus_text(None, on)
    assert "repro_trace_enabled 1" in text
    assert "repro_trace_max_spans 1" in text
    assert "repro_trace_dropped_spans_total 1" in text


def test_serve_metrics_prometheus_method():
    metrics = ServeMetrics()
    metrics.inc("requests_total")
    text = metrics.prometheus_text()
    assert 'repro_serve_counter{name="requests_total"} 1' in text


# ---------------------------------------------------------------------------
# Bit-identity: tracing must not change numerics
# ---------------------------------------------------------------------------

def _tiny_approx_model():
    train = SyntheticImageDataset(32, 4, 12, seed=5, split="train")
    model = approximate_model(
        LeNet(num_classes=4, image_size=12, seed=5),
        get_multiplier("mul6u_rm4"),
        gradient_method="difference", hws=2,
    )
    calibrate(model, DataLoader(train, batch_size=16), batches=1)
    freeze(model)
    return model


def _fwd_bwd(model, x, y):
    model.zero_grad()
    out = model(Tensor(x))
    loss = cross_entropy(out, y)
    loss.backward()
    grads = [p.grad.copy() for p in model.parameters()]
    return out.data.copy(), float(loss.data), grads


def test_traced_numerics_bit_identical():
    model = _tiny_approx_model()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 12, 12))
    y = rng.integers(0, 4, size=4)

    out_off, loss_off, grads_off = _fwd_bwd(model, x, y)
    with tracing():
        out_on, loss_on, grads_on = _fwd_bwd(model, x, y)
    out_off2, loss_off2, grads_off2 = _fwd_bwd(model, x, y)

    assert np.array_equal(out_off, out_on)
    assert loss_off == loss_on
    for g_off, g_on in zip(grads_off, grads_on):
        assert np.array_equal(g_off, g_on)
    # and disabling again leaves the original behavior in place
    assert np.array_equal(out_off, out_off2)
    assert loss_off == loss_off2


def test_traced_retrain_covers_expected_spans():
    """One traced fwd+bwd hits autograd, engine, and approx-layer spans."""
    model = _tiny_approx_model()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3, 12, 12))
    y = rng.integers(0, 4, size=4)
    t = get_tracer()
    with tracing():
        _fwd_bwd(model, x, y)
    stat_names = {k[0] for k in t.stats()}
    for want in ("approx.gemm", "approx.quantize", "lutgemm.gather",
                 "approx.gemm_backward"):
        assert want in stat_names, want


# ---------------------------------------------------------------------------
# Offline merge + stage report (`repro trace`)
# ---------------------------------------------------------------------------

def _serve_doc():
    """One request answered by batch 3, whose plan run did 0.2ms requant."""
    return {
        "traceEvents": [
            {
                "name": "serve.request", "cat": "serve", "ph": "X",
                "ts": 100.0, "dur": 900.0, "pid": 1, "tid": 9,
                "args": {
                    "trace_id": 1, "batch_id": 3,
                    "queue_ms": 0.2, "assembly_ms": 0.1, "exec_ms": 0.5,
                    "transit_ms": 0.1, "total_ms": 0.9,
                },
            },
            {"name": "serve.batch_exec", "cat": "serve", "ph": "X",
             "ts": 400.0, "dur": 500.0, "pid": 1, "tid": 9,
             "args": {"batch_id": 3}},
            {"name": "serve.requant", "cat": "serve", "ph": "X",
             "ts": 430.0, "dur": 200.0, "pid": 1, "tid": 9},
            # Another thread's requant at the same time is not batch 3's.
            {"name": "serve.requant", "cat": "serve", "ph": "X",
             "ts": 450.0, "dur": 100.0, "pid": 1, "tid": 10},
        ],
        "displayTimeUnit": "ms",
        "otherData": {"origin": 1000.0, "pid": 1, "dropped_spans": 1,
                      "counters": {"serve.batches": 2}},
    }


def test_merge_chrome_traces_rebases():
    later = {
        "traceEvents": [
            {"name": "serve.batch_exec", "cat": "serve", "ph": "X",
             "ts": 50.0, "dur": 500.0, "pid": 1, "tid": 9},
        ],
        "displayTimeUnit": "ms",
        "otherData": {"origin": 1000.00025, "pid": 1,
                      "counters": {"serve.batches": 1}},
    }
    merged = merge_chrome_traces([later, _serve_doc()])
    other = merged["otherData"]
    assert other["origin"] == 1000.0
    assert other["dropped_spans"] == 1
    assert other["merged_from"] == 2
    assert other["counters"] == {"serve.batches": 3}

    events = merged["traceEvents"]
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts)
    # The later document's events rebased by +250us onto the earliest
    # origin; the earliest document's events keep their timestamps.
    rebased = next(e for e in events if "args" not in e
                   and e["name"] == "serve.batch_exec")
    assert rebased["ts"] == pytest.approx(300.0)
    req = next(e for e in events if e["name"] == "serve.request")
    assert req["ts"] == 100.0


def test_stage_breakdown_and_latency_report():
    info = stage_breakdown(_serve_doc())
    assert info["n_requests"] == 1 and info["n_batches"] == 1
    s = info["samples"]
    assert s["queue_wait"] == [0.2]
    assert s["batch_assembly"] == [0.1]
    # Requant (the 0.2ms span inside batch 3's window on its thread) is
    # split out of the 0.5ms exec stage.
    assert s["requant"] == [pytest.approx(0.2)]
    assert s["kernel"] == [pytest.approx(0.3)]
    assert s["reply"] == [0.1]
    assert s["total"] == [0.9]

    report = latency_report(_serve_doc())
    assert "queue_wait" in report and "requant" in report
    assert "n=1 requests" in report
    # Stages partition the total by construction: coverage ~100%.
    coverage = float(report.rsplit("stage coverage: ", 1)[1].split("%")[0])
    assert coverage >= 95.0


def test_latency_report_without_requests_is_friendly():
    report = latency_report({"traceEvents": [], "otherData": {}})
    assert "no serve.request spans" in report


def test_load_trace_file_rejects_unknown_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError):
        load_trace_file(str(path))


def test_traced_pool_stage_report_covers_every_request():
    """A traced 2-thread pool leaves one stage-split span per request."""
    train = SyntheticImageDataset(48, 4, 12, seed=5, split="train")
    model = approximate_model(
        LeNet(num_classes=4, image_size=12, seed=5),
        get_multiplier("mul6u_rm4"),
        gradient_method="none", include_linear=True,
    )
    calibrate(model, DataLoader(train, batch_size=16), batches=1)
    freeze(model)
    model.eval()
    n = 24
    x = np.random.default_rng(4).standard_normal((n, 3, 12, 12))
    # Unfused, so the plan runs standalone requant ops to attribute.
    ref = compile_plan(model, arithmetic="int", fuse=False).run(x)

    with tracing() as t:
        with WorkerPool(
            lambda: compile_plan(model, arithmetic="int", fuse=False,
                                 private_engines=True),
            workers=2, max_batch=4, max_wait_ms=1.0,
        ) as pool:
            outs = [f.result(timeout=60.0) for f in map(pool.submit, x)]
        doc = chrome_trace(t)
    assert all(np.array_equal(o, r) for o, r in zip(outs, ref))

    info = stage_breakdown(doc)
    assert info["n_requests"] == n
    s = info["samples"]
    stages = ("queue_wait", "batch_assembly", "kernel", "requant", "reply")
    for i, total in enumerate(s["total"]):
        parts = [s[name][i] for name in stages]
        assert all(p >= -1e-9 for p in parts), parts
        assert sum(parts) == pytest.approx(total, rel=1e-9, abs=1e-9)
    assert sum(s["requant"]) > 0.0
    assert "n=%d requests" % n in latency_report(doc)

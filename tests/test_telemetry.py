"""Tests for repro.obs.telemetry and repro.obs.health.

Covers the metric registry (counter/gauge/histogram families, labels,
mismatch errors, Prometheus exposition), the exposition-validity contract
over the full ServeMetrics text output, the training-health probes on a
real approximate model, the structured non-finite-loss error, and the
RunRecord health plumbing (including pre-telemetry journal compatibility).
"""

import json
import math
import threading

import numpy as np
import pytest

from repro.data import DataLoader, SyntheticImageDataset
from repro.errors import (
    NonFiniteLossError,
    ReproError,
    TrainingHealthError,
    TransientRunError,
)
from repro.models import LeNet
from repro.multipliers import get_multiplier
from repro.obs import telemetry
from repro.obs.health import (
    format_health_report,
    get_monitor,
    load_health_jsonl,
)
from repro.obs.telemetry import (
    HistogramCell,
    Metric,
    MetricRegistry,
    get_registry,
)
from repro.obs.trace import tracing
from repro.retrain.convert import approximate_model, calibrate, freeze
from repro.retrain.logging import RunRecord, append_jsonl, read_jsonl
from repro.retrain.trainer import TrainConfig, Trainer, TrainHistory
from repro.serve import WorkerPool, compile_plan
from repro.serve.metrics import ServeMetrics


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry off and all state clear."""
    telemetry.disable()
    get_registry().reset()
    get_monitor().reset()
    yield
    telemetry.disable()
    get_registry().reset()
    get_monitor().reset()


# ---------------------------------------------------------------------------
# Metric registry core
# ---------------------------------------------------------------------------

def test_counter_inc_and_labels():
    reg = MetricRegistry()
    c = reg.counter("requests_total", "Requests.", labelnames=("route",))
    c.inc(route="/a")
    c.inc(3, route="/a")
    c.inc(route="/b")
    assert c.value(route="/a") == 4
    assert c.value(route="/b") == 1
    assert c.value(route="/missing") == 0


def test_counter_rejects_negative_and_bad_labels():
    reg = MetricRegistry()
    c = reg.counter("n_total", "N.", labelnames=("k",))
    with pytest.raises(ReproError):
        c.inc(-1, k="x")
    with pytest.raises(ReproError):
        c.inc(k="x", extra="y")
    with pytest.raises(ReproError):
        c.inc()  # missing label


def test_gauge_set():
    reg = MetricRegistry()
    g = reg.gauge("temp", "Temperature.")
    g.set(1.5)
    assert g.value() == 1.5
    g.set(-2.0)
    assert g.value() == -2.0


def test_histogram_buckets_cumulative():
    reg = MetricRegistry()
    h = reg.histogram("lat", "Latency.", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    lines = "\n".join(h.prometheus_lines())
    assert 'lat_bucket{le="0.1"} 1' in lines
    assert 'lat_bucket{le="1"} 2' in lines
    assert 'lat_bucket{le="+Inf"} 3' in lines
    assert "lat_count 3" in lines
    assert "lat_sum 5.55" in lines


def test_registry_getter_is_idempotent():
    reg = MetricRegistry()
    a = reg.counter("x_total", "X.")
    b = reg.counter("x_total", "X.")
    assert a is b


def test_registry_kind_mismatch_raises():
    reg = MetricRegistry()
    reg.counter("m", "M.")
    with pytest.raises(ReproError):
        reg.gauge("m", "M.")


def test_registry_labelnames_mismatch_raises():
    reg = MetricRegistry()
    reg.counter("m_total", "M.", labelnames=("a",))
    with pytest.raises(ReproError):
        reg.counter("m_total", "M.", labelnames=("b",))


def test_metric_rejects_illegal_name():
    with pytest.raises(ReproError):
        Metric("bad name", "counter", "Nope.", (), threading.Lock())
    with pytest.raises(ReproError):
        MetricRegistry().counter("1starts_with_digit", "Nope.")
    with pytest.raises(ReproError):
        MetricRegistry().counter("ok_total", "Nope.", labelnames=("bad-label",))


def test_label_value_escaping():
    reg = MetricRegistry()
    g = reg.gauge("g", "G.", labelnames=("path",))
    g.set(1.0, path='a"b\\c\nd')
    sample = [ln for ln in g.prometheus_lines() if not ln.startswith("#")][0]
    assert '\\"' in sample and "\\\\" in sample and "\\n" in sample
    assert "\n" not in sample


def test_nan_gauge_kept_in_dict_skipped_in_text():
    reg = MetricRegistry()
    g = reg.gauge("maybe", "Maybe.")
    g.set(float("nan"))
    assert math.isnan(reg.as_dict()["maybe"]["samples"][0]["value"])
    assert reg.prometheus_lines() == []  # all-NaN family: no HELP either


def test_registry_reset_clears_values():
    reg = MetricRegistry()
    reg.counter("c_total", "C.").inc(5)
    reg.reset()
    assert reg.as_dict() == {}


# ---------------------------------------------------------------------------
# Prometheus exposition validity (full ServeMetrics text output)
# ---------------------------------------------------------------------------

_SUFFIXES = {"histogram": ("_bucket", "_sum", "_count"),
             "summary": ("_sum", "_count")}


def _validate_exposition(text: str) -> int:
    """Assert Prometheus text-format rules; returns the sample count.

    Checks: each family has exactly one HELP/TYPE pair, and it precedes
    the family's samples; names and label names are legal, label values
    are quoted, no sample value is NaN; a histogram's ``_bucket`` values
    are cumulative and its ``+Inf`` bucket equals its ``_count``.
    """
    import re

    name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    sample_re = re.compile(
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$"
    )
    label_re = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$')

    families: dict[str, str] = {}  # name -> type
    helped: set[str] = set()
    buckets: dict[str, list[float]] = {}  # series -> bucket values
    counts: dict[str, float] = {}  # series -> _count value
    n_samples = 0
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            name = line.split()[2]
            assert name_re.match(name), f"illegal family name {name!r}"
            assert name not in helped, f"duplicate HELP for {name}"
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            _, _, name, mtype = line.split(None, 3)
            assert name in helped, f"TYPE before HELP for {name}"
            assert name not in families, f"duplicate TYPE for {name}"
            assert mtype in ("counter", "gauge", "histogram", "summary",
                             "untyped"), mtype
            families[name] = mtype
            continue
        if line.startswith("#"):
            continue  # other comments are legal
        m = sample_re.match(line)
        assert m, f"unparseable sample line {line!r}"
        name = m.group("name")
        family = next(
            (
                name[: -len(sfx)]
                for fam, sfxs in _SUFFIXES.items()
                for sfx in sfxs
                if name.endswith(sfx) and families.get(name[: -len(sfx)]) == fam
            ),
            name,
        )
        assert family in families, f"sample {name!r} has no HELP/TYPE"
        if m.group("labels"):
            for pair in re.split(r',(?=[a-zA-Z_])', m.group("labels")):
                assert label_re.match(pair), f"bad label pair {pair!r}"
        assert m.group("value") != "NaN", f"NaN sample: {line!r}"
        value = float(
            m.group("value").replace("+Inf", "inf").replace("-Inf", "-inf")
        )
        if families[family] == "histogram":
            labels = m.group("labels") or ""
            series = family + "{" + re.sub(r',?le="[^"]*"', "", labels) + "}"
            if name.endswith("_bucket"):
                buckets.setdefault(series, []).append(value)
            elif name.endswith("_count"):
                counts[series] = value
        n_samples += 1
    for series, values in buckets.items():
        assert values == sorted(values), f"non-cumulative buckets: {series}"
        assert values[-1] == counts[series], f"+Inf != _count: {series}"
    assert buckets.keys() == counts.keys()
    return n_samples


def test_exposition_valid_with_all_sources():
    metrics = ServeMetrics()
    metrics.inc("requests_total", 7)
    metrics.register_gauge("queue_depth", lambda: 3)
    metrics.observe_latency("request", 12.5)
    metrics.observe_batch(4)
    reg = get_registry()
    reg.gauge("repro_health_grad_cosine", "Cosine.",
              labelnames=("layer",)).set(0.97, layer="features.0")
    reg.histogram("repro_health_fake_quant_saturation", "Sat.").observe(0.25)
    reg.gauge("nan_only", "All NaN.").set(float("nan"))

    text = metrics.prometheus_text()
    n = _validate_exposition(text)
    assert n >= 8
    assert 'repro_serve_counter{name="requests_total"} 7' in text
    assert 'repro_health_grad_cosine{layer="features.0"} 0.97' in text
    assert "repro_health_fake_quant_saturation_bucket" in text
    assert "NaN" not in text


def _add_empty_series(metrics: ServeMetrics, series: str) -> None:
    """A latency series with zero samples (``observe`` never makes one)."""
    fam = metrics._latency
    fam._values[(series,)] = HistogramCell(len(fam.buckets))


def test_exposition_empty_latency_histogram_is_nan_free():
    metrics = ServeMetrics()
    # Histogram exists but has zero samples (NaN percentiles in JSON).
    _add_empty_series(metrics, "never_observed")
    assert math.isnan(metrics.as_dict()["latency"]["never_observed"]["p50_ms"])
    text = metrics.prometheus_text()
    _validate_exposition(text)
    assert 'repro_latency_ms_count{series="never_observed"} 0' in text
    assert "NaN" not in text


def test_exposition_of_a_live_traced_pool():
    """One scrape of a traced 2-thread pool with telemetry on, after traffic."""
    telemetry.enable(sample_every=1, sample_cols=8)
    trainer, train = _tiny_approx_trainer()
    trainer.fit(train)  # health families land on the process registry
    model = trainer.model
    model.eval()
    n = 12
    x = np.random.default_rng(2).standard_normal((n, 3, 12, 12))
    with tracing():
        with WorkerPool(
            lambda: compile_plan(model, arithmetic="int"),
            workers=2, max_batch=4, max_wait_ms=1.0,
        ) as pool:
            for fut in [pool.submit(xi) for xi in x]:
                fut.result(timeout=60.0)
            text = pool.metrics.prometheus_text()
    _validate_exposition(text)
    assert f'repro_latency_ms_count{{series="request_ms"}} {n}' in text
    assert f'repro_latency_ms_count{{series="queue_wait_ms"}} {n}' in text
    assert "# TYPE repro_latency_ms histogram" in text
    assert 'repro_trace_span_calls_total{span="serve.batch_exec"}' in text
    assert "repro_health_grad_cosine" in text


# ---------------------------------------------------------------------------
# ServeMetrics registry routing + single-sort percentiles
# ---------------------------------------------------------------------------

def test_serve_counters_route_through_registry():
    metrics = ServeMetrics()
    metrics.inc("requests_total")
    metrics.inc("requests_total", 2)
    assert metrics.counter("requests_total") == 3
    assert metrics.as_dict()["counters"]["requests_total"] == 3
    # Private per-instance registry: two deployments don't share counts.
    other = ServeMetrics()
    assert other.counter("requests_total") == 0


def test_latency_percentiles_single_call_matches_np():
    hist = MetricRegistry().histogram("lat_ms", "Latency.")
    rng = np.random.default_rng(3)
    samples = rng.exponential(10.0, size=200)
    for s in samples:
        hist.observe(float(s))
    [((), cell)] = hist.items()
    want = [float(v) for v in np.percentile(samples, (50, 95, 99))]
    assert cell.percentiles((50, 95, 99)) == want
    # The /metrics JSON reads the same numbers from the same ring.
    metrics = ServeMetrics()
    for s in samples:
        metrics.observe_latency("request_ms", float(s))
    snap = metrics.as_dict()["latency"]["request_ms"]
    assert [snap["p50_ms"], snap["p95_ms"], snap["p99_ms"]] == want
    assert snap["min_ms"] == samples.min() and snap["max_ms"] == samples.max()
    assert snap["count"] == 200


def test_latency_percentiles_empty_is_nan():
    cell = HistogramCell(3)
    assert all(math.isnan(p) for p in cell.percentiles((50, 95, 99)))


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def test_enable_disable_roundtrip(tmp_path):
    assert not telemetry.is_enabled()
    telemetry.enable(jsonl_path=str(tmp_path / "h.jsonl"), sample_every=2)
    assert telemetry.is_enabled()
    assert get_monitor().enabled
    assert get_monitor().config.sample_every == 2
    telemetry.disable()
    assert not telemetry.is_enabled()
    assert not get_monitor().enabled


def test_enable_rejects_bad_sampling():
    with pytest.raises(ReproError):
        telemetry.enable(sample_every=0)
    with pytest.raises(ReproError):
        telemetry.enable(sample_cols=0)


def test_env_requested(monkeypatch):
    monkeypatch.delenv(telemetry.TELEMETRY_ENV, raising=False)
    assert not telemetry.env_requested()
    for truthy in ("1", "true", "ON", "yes"):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, truthy)
        assert telemetry.env_requested()
    monkeypatch.setenv(telemetry.TELEMETRY_ENV, "0")
    assert not telemetry.env_requested()


# ---------------------------------------------------------------------------
# Health probes on a real approximate model
# ---------------------------------------------------------------------------

def _tiny_approx_trainer(epochs=1):
    train = SyntheticImageDataset(32, 4, 12, seed=1, split="train")
    model = approximate_model(
        LeNet(num_classes=4, image_size=12, seed=1),
        get_multiplier("mul6u_rm4"),
        gradient_method="difference",
        hws=2,
    )
    calibrate(model, DataLoader(train, batch_size=16), batches=1)
    freeze(model)
    trainer = Trainer(model, TrainConfig(epochs=epochs, batch_size=16, seed=1))
    return trainer, train


def test_health_probes_collect_and_stream(tmp_path):
    jsonl = tmp_path / "health.jsonl"
    telemetry.enable(jsonl_path=str(jsonl), sample_every=1, sample_cols=8)
    trainer, train = _tiny_approx_trainer()
    trainer.fit(train)

    records = get_monitor().epoch_records()
    assert len(records) == 1
    layers = records[0]["layers"]
    assert layers, "no per-layer stats recorded"
    for stats in layers.values():
        if "grad_cosine" in stats:
            assert -1.0 <= stats["grad_cosine"] <= 1.0
            assert 0.0 <= stats["ste_divergence"] <= 2.0
        if "w_sat" in stats:
            assert 0.0 <= stats["w_sat"] <= 1.0
            assert stats["w_drift"] >= 0.0
    assert any("grad_cosine" in s for s in layers.values())
    coverage = records[0]["coverage"]
    assert coverage
    for stats in coverage.values():
        assert 0.0 < stats["coverage"] <= 1.0
        assert stats["total_hits"] > 0

    # Streamed JSONL round-trips through the reader.
    loaded = load_health_jsonl(jsonl)
    assert loaded[0]["epoch"] == records[0]["epoch"]
    assert loaded[0]["layers"].keys() == layers.keys()

    # Gauges landed on the shared registry and export cleanly.
    snap = get_registry().as_dict()
    assert "repro_health_grad_cosine" in snap
    assert "repro_health_saturation_rate" in snap
    assert "repro_health_lut_coverage" in snap
    _validate_exposition(ServeMetrics().prometheus_text())

    summary = get_monitor().run_summary()
    assert len(summary["mean_sat_rate"]) == 1
    assert len(summary["worst_grad_cosine"]) == 1
    assert -1.0 <= summary["worst_grad_cosine"][0] <= 1.0


def test_health_report_renders_sections(tmp_path):
    telemetry.enable(sample_every=1, sample_cols=8)
    trainer, train = _tiny_approx_trainer(epochs=2)
    trainer.fit(train)
    report = format_health_report(get_monitor().epoch_records())
    assert "== gradient quality" in report
    assert "== quantization saturation" in report
    assert "== LUT coverage" in report
    assert "mul6u_rm4/difference" in report


def test_saturation_anomaly_event():
    telemetry.enable(sample_every=1, sample_cols=8,
                     saturation_threshold=0.0)
    trainer, train = _tiny_approx_trainer()
    trainer.fit(train)
    events = get_monitor().epoch_records()[0]["events"]
    assert any(e["kind"] == "saturation" for e in events)
    counters = get_registry().as_dict()["repro_health_anomalies_total"]
    assert any(s["value"] >= 1 for s in counters["samples"])


def test_disabled_monitor_records_nothing():
    trainer, train = _tiny_approx_trainer()
    trainer.fit(train)
    assert get_monitor().epoch_records() == []
    assert get_monitor().run_summary() == {}
    assert get_registry().as_dict() == {}


def test_coverage_histogram_counts_every_sampled_pair():
    telemetry.enable(sample_every=1, sample_cols=4)
    monitor = get_monitor()

    class _Mult:
        name = "fake"

    class _Grads:
        method = "difference"

    class _Engine:
        multiplier = _Mult()
        gradients = _Grads()
        levels = 4

    wq = np.array([[0, 1], [2, 3]], dtype=np.uint8)
    xq = np.array([[1, 1, 1], [3, 3, 3]], dtype=np.uint8)
    monitor.observe_operands(_Engine(), wq, xq)
    hits = monitor._coverage["fake/difference"]
    # 3 sampled columns (<= sample_cols), rows x cols pairs each.
    assert hits.sum() == wq.size * xq.shape[1]
    assert hits[0 * 4 + 1] == 3  # (w=0, x=1) hit once per column
    assert hits[3 * 4 + 3] == 3


# ---------------------------------------------------------------------------
# Non-finite loss: structured error, raised even with telemetry off
# ---------------------------------------------------------------------------

def test_nonfinite_loss_structured_error():
    trainer, train = _tiny_approx_trainer()
    for p in trainer.model.parameters():
        p.data[:] = np.nan
    with pytest.raises(NonFiniteLossError) as err:
        trainer.fit(train)
    e = err.value
    assert isinstance(e, TrainingHealthError)
    assert isinstance(e, TransientRunError)  # sweeps retry these
    assert e.epoch == 0 and e.step == 0
    assert math.isnan(e.loss_value)
    assert e.last_finite_loss is None
    assert "batch 1" in str(e)


def test_nonfinite_loss_reports_last_finite_loss():
    telemetry.enable(sample_every=1)
    trainer, train = _tiny_approx_trainer(epochs=2)

    def poison(epoch, history):
        for p in trainer.model.parameters():
            p.data[:] = np.inf

    with pytest.raises(NonFiniteLossError) as err:
        trainer.fit(train, on_epoch_end=poison)
    e = err.value
    assert e.epoch == 1 and e.step == 0
    assert e.last_finite_loss is not None
    assert math.isfinite(e.last_finite_loss)
    events = [ev for ev in get_monitor()._epoch_events
              if ev.kind == "nonfinite_loss"]
    assert len(events) == 1


# ---------------------------------------------------------------------------
# RunRecord health plumbing + journal backward compatibility
# ---------------------------------------------------------------------------

def test_run_record_health_roundtrip(tmp_path):
    path = tmp_path / "runs.jsonl"
    health = {"mean_sat_rate": [0.1, 0.2], "worst_grad_cosine": [0.9, 0.95]}
    append_jsonl(
        RunRecord(run_id="r1", history=TrainHistory(train_loss=[1.0]),
                  health=health),
        path,
    )
    rec = read_jsonl(path)[0]
    assert rec.health == health


def test_run_record_without_health_writes_legacy_payload(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_jsonl(RunRecord(run_id="r1"), path)
    raw = json.loads(path.read_text())
    assert "health" not in raw  # telemetry-off logs stay byte-identical


def test_read_jsonl_parses_pre_telemetry_journals(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps({
        "run_id": "legacy",
        "arch": "lenet",
        "multiplier": "mul8u_1kv6",
        "method": "difference",
        "seed": 3,
        "extra": {},
        "history": {"train_loss": [2.0, 1.5]},
    }) + "\n")
    rec = read_jsonl(path)[0]
    assert rec.run_id == "legacy"
    assert rec.health == {}
    assert rec.history.train_loss == [2.0, 1.5]


# ---------------------------------------------------------------------------
# Registry snapshot consistency under concurrent writers
# ---------------------------------------------------------------------------

def test_registry_snapshot_consistent_under_concurrent_writers():
    """GET /metrics must never render a half-updated family.

    Histogram cells are mutable lists mutated in place by ``observe``;
    every exported view must therefore come from one atomic registry
    snapshot.  Hammer one histogram + one counter from several writer
    threads while rendering both surfaces, and check the invariants that
    only hold for an un-torn snapshot: with every observation equal to
    0.5 (inside the bucket bounds), ``sum == 0.5 * count`` and the
    bucket counts add up to ``count`` exactly.
    """
    registry = MetricRegistry()
    hist = registry.histogram(
        "hammer_hist", "hammer", buckets=(0.25, 0.5, 1.0)
    )
    ctr = registry.counter("hammer_ctr", "hammer", labelnames=("who",))
    per_thread, threads = 2000, 4
    stop = threading.Event()

    def write(who):
        for _ in range(per_thread):
            hist.observe(0.5)
            ctr.inc(who=who)

    writers = [
        threading.Thread(target=write, args=(str(i),)) for i in range(threads)
    ]
    torn = []

    def render():
        while not stop.is_set():
            snap = registry.as_dict()
            sample = snap["hammer_hist"]["samples"]
            if sample:
                buckets, total, count = (
                    sample[0]["buckets"], sample[0]["sum"], sample[0]["count"]
                )
                if sum(buckets.values()) != count or total != 0.5 * count:
                    torn.append((buckets, total, count))
            for line in registry.prometheus_lines():
                if line.startswith('hammer_hist_bucket{le="+Inf"}'):
                    inf = int(line.rsplit(" ", 1)[1])
                elif line.startswith("hammer_hist_count"):
                    if int(line.rsplit(" ", 1)[1]) != inf:
                        torn.append(("prometheus", line))

    reader = threading.Thread(target=render)
    reader.start()
    for t in writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    reader.join()

    assert torn == []
    assert hist.value() == per_thread * threads
    assert sum(ctr.value(who=str(i)) for i in range(threads)) == (
        per_thread * threads
    )

"""Serving metrics: counters, latency histograms, batch-size distribution.

One :class:`ServeMetrics` instance is shared by the scheduler, the worker
pool, and the HTTP endpoint.  Every metric is a family of the instance's
own :class:`repro.obs.telemetry.MetricRegistry`: event counters
``repro_serve_counter{name}``, latency histograms ``repro_latency_ms{series}``
(``request_ms``, ``batch_exec_ms``, ``queue_wait_ms``, the sweep's
``sweep_cell_wall_ms``), ``repro_batch_size_total{size}``, registered
gauges ``repro_serve_gauge{name}`` (sampled at read time) and
``repro_engine_cache{stat}`` (set before each snapshot).
:meth:`ServeMetrics.as_dict` (``GET /metrics``, which also embeds the
process-wide telemetry registry) and :meth:`ServeMetrics.prometheus_text`
render one registry snapshot; :meth:`ServeMetrics.format_report` is the
human-readable view.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.obs.telemetry import HistogramCell, MetricRegistry, get_registry

#: Bucket bounds (milliseconds) of ``repro_latency_ms``: 0.1 ms to 10 min.
LATENCY_MS_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                      100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
                      30000.0, 60000.0, 120000.0, 300000.0, 600000.0)


def latency_summary(cell: HistogramCell) -> dict:
    """The ``/metrics`` JSON view of one latency series (NaN when empty)."""
    nan = math.nan
    n = cell.count
    p50, p95, p99 = cell.percentiles((50, 95, 99))
    return {
        "count": n,
        "mean_ms": cell.sum / n if n else nan,
        "min_ms": cell.min if n else nan,
        "max_ms": cell.max if n else nan,
        "p50_ms": p50,
        "p95_ms": p95,
        "p99_ms": p99,
    }


class ServeMetrics:
    """Metrics of one serving deployment, in a private registry.

    Each instance gets its own :class:`MetricRegistry`, so independent
    deployments (and tests) never share state.
    """

    def __init__(self):
        reg = self.registry = MetricRegistry()
        self._events = reg.counter("repro_serve_counter",
                                   "Serving/sweep event counters.", ("name",))
        self._latency = reg.histogram(
            "repro_latency_ms", "Serving and sweep latencies, milliseconds.",
            ("series",), LATENCY_MS_BUCKETS)
        self._batches = reg.counter("repro_batch_size_total",
                                    "Executed micro-batches by batch size.",
                                    ("size",))
        self._gauge = reg.gauge("repro_serve_gauge",
                                "Live-sampled serving gauges.", ("name",))
        self._engine_cache = reg.gauge("repro_engine_cache",
                                       "LUT-GEMM engine cache stats.",
                                       ("stat",))
        self._plan_info: dict = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self._events.inc(n, name=name)

    def counter(self, name: str) -> int:
        return self._events.value(name=name)

    def observe_latency(self, name: str, value_ms: float) -> None:
        """Record one latency sample (milliseconds) in series ``name``."""
        self._latency.observe(value_ms, series=name)

    def observe_queue_wait(self, value_ms: float) -> None:
        """Record one submit->dispatch queue wait (milliseconds)."""
        self.observe_latency("queue_wait_ms", value_ms)

    def observe_batch(self, size: int) -> None:
        """Record the size of one executed micro-batch."""
        self._batches.inc(size=size)
        self._events.inc(name="batches_total")

    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a live-sampled gauge (e.g. current queue depth)."""
        self._gauge.set_function(fn, name=name)

    def set_plan_info(self, info: dict) -> None:
        """Record the compiled plan's op summary (see
        :meth:`repro.serve.plan.InferencePlan.op_summary`), so ``GET
        /metrics`` shows which arithmetic mode and op/dtype mix is live."""
        self._plan_info = dict(info)

    @property
    def batch_size_histogram(self) -> dict[int, int]:
        return dict(sorted((int(size), n)
                           for (size,), n in self._batches.items()))

    # ------------------------------------------------------------------
    def snapshot(self) -> list:
        """The registry's atomic snapshot, engine-cache stats set first."""
        from repro.core.lutgemm import engine_cache_stats

        cache = engine_cache_stats()
        for stat in ("entries", "hits", "misses"):
            self._engine_cache.set(getattr(cache, stat), stat=stat)
        return self.registry.snapshot()

    def as_dict(self) -> dict:
        """Snapshot every metric as a plain (JSON-serializable) dict."""
        from repro.obs.trace import get_tracer

        fams = {fam.name: {key[0]: value for key, value in items}
                for fam, items in self.snapshot()}
        tracer = get_tracer()
        return {
            "counters": fams["repro_serve_counter"],
            "plan": dict(self._plan_info),
            "latency": {series: latency_summary(cell)
                        for series, cell in fams["repro_latency_ms"].items()},
            "batch_size_histogram": dict(sorted(
                fams["repro_batch_size_total"].items(),
                key=lambda item: int(item[0]))),
            "gauges": fams["repro_serve_gauge"],
            "engine_cache": fams["repro_engine_cache"],
            # Tracer state rides along so an operator can see from
            # GET /metrics whether tracing is on and whether the span
            # buffer overflowed (spans past max_spans drop silently
            # otherwise).
            "tracer": {
                "enabled": tracer.enabled,
                "max_spans": tracer.max_spans,
                "spans": tracer.span_count,
                "dropped_spans": tracer.dropped,
            },
            # Process-wide telemetry families (training-health gauges,
            # anomaly counters, ...) so GET /metrics exposes them in JSON.
            "telemetry": get_registry().as_dict(),
        }

    def prometheus_text(self) -> str:
        """Prometheus-style text exposition of the current snapshot.

        Unifies these serving metrics with the :mod:`repro.obs` tracer's
        counters/span aggregates and the process-wide telemetry registry
        (what ``GET /metrics?format=text`` returns).
        """
        from repro.obs.export import prometheus_text
        from repro.obs.trace import get_tracer

        return prometheus_text(self, get_tracer(), registry=get_registry())
    def format_report(self) -> str:
        """Multi-line human-readable report of the current snapshot."""
        snap = self.as_dict()
        lines = ["serve metrics"]
        if snap["plan"]:
            plan = snap["plan"]
            lines.append(
                f"  plan: {plan.get('model', '?')} "
                f"[{plan.get('arithmetic', '?')}] {plan.get('ops', 0)} ops, "
                f"{plan.get('lutgemm_ops', 0)} LUT-GEMM, "
                f"integer core: {plan.get('integer_only_core', False)}"
            )
        for name, value in sorted(snap["counters"].items()):
            lines.append(f"  {name}: {value}")
        for name, value in sorted(snap["gauges"].items()):
            lines.append(f"  {name}: {value}")
        for name, hist in sorted(snap["latency"].items()):
            lines.append(
                f"  {name}: n={hist['count']} mean={hist['mean_ms']:.3f}ms "
                f"p50={hist['p50_ms']:.3f}ms p95={hist['p95_ms']:.3f}ms "
                f"p99={hist['p99_ms']:.3f}ms max={hist['max_ms']:.3f}ms"
            )
        if snap["batch_size_histogram"]:
            dist = " ".join(
                f"{size}x{count}"
                for size, count in snap["batch_size_histogram"].items()
            )
            lines.append(f"  batch sizes: {dist}")
        cache = snap["engine_cache"]
        lines.append(
            f"  engine cache: {cache['entries']} engine(s), "
            f"{cache['hits']} hit(s), {cache['misses']} miss(es)"
        )
        tracer = snap["tracer"]
        if tracer["enabled"] or tracer["dropped_spans"]:
            lines.append(
                f"  tracer: enabled={tracer['enabled']} "
                f"spans={tracer['spans']}/{tracer['max_spans']} "
                f"dropped={tracer['dropped_spans']}"
            )
        return "\n".join(lines)

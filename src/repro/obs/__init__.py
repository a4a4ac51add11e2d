"""Observability: zero-dependency tracing, telemetry, and metric export.

The subsystem has five parts:

- :mod:`repro.obs.trace` -- the process-wide span tracer (context-manager +
  decorator API, thread-aware self-time attribution, counters).  Hooked
  into the autograd tape, the approximate layers, the LUT-GEMM engine, the
  trainer, the sweep runner, and the serve scheduler/pool.  When disabled
  (the default) every hook is a no-op or patched out entirely, so numerics
  and performance are bit-identical to an untraced build.
- :mod:`repro.obs.telemetry` -- the thread-safe metric registry
  (counter / gauge / histogram families with labels) that holds every
  serving metric and the training-health probes' gauges, its one
  histogram type (buckets plus recent-sample quantiles) and its one
  Prometheus ``# HELP``/``# TYPE`` writer, plus the ``REPRO_TELEMETRY``
  lifecycle (:func:`repro.obs.telemetry.enable` / ``disable``).
- :mod:`repro.obs.health` -- per-layer training-health probes (gradient
  quality vs. an exact finite-difference reference, quantization
  saturation and range drift, LUT operand coverage) and the anomaly
  monitor that raises structured errors on non-finite loss/gradients.
- :mod:`repro.obs.export` -- Chrome-trace JSON, a sorted self/cumulative
  time table, and a Prometheus-style text exposition that renders
  :class:`repro.serve.metrics.ServeMetrics`' registry, the tracer's
  counters and span aggregates, and the telemetry registry through the
  same formatter; plus the offline trace merge and per-stage request
  latency report behind the ``repro trace`` CLI.
- :mod:`repro.obs.profile` -- the ``repro profile`` driver: trace a short
  retrain or a canned inference load and write the trace + table.
"""

from repro.obs.trace import (
    Span,
    SpanStats,
    Tracer,
    add_time,
    count,
    disable,
    enable,
    get_tracer,
    is_enabled,
    record,
    reset,
    span,
    tracing,
)
from repro.obs.export import (
    chrome_trace,
    format_table,
    latency_report,
    load_trace_file,
    merge_chrome_traces,
    prometheus_text,
    stage_breakdown,
    write_chrome_trace,
)
from repro.obs.health import (
    HealthEvent,
    HealthMonitor,
    format_health_report,
    get_monitor,
    load_health_jsonl,
)
from repro.obs.telemetry import (
    Metric,
    MetricRegistry,
    TelemetryConfig,
    get_registry,
)

__all__ = [
    "Span",
    "SpanStats",
    "Tracer",
    "add_time",
    "count",
    "disable",
    "enable",
    "get_tracer",
    "is_enabled",
    "record",
    "reset",
    "span",
    "tracing",
    "chrome_trace",
    "format_table",
    "latency_report",
    "load_trace_file",
    "merge_chrome_traces",
    "prometheus_text",
    "stage_breakdown",
    "write_chrome_trace",
    "HealthEvent",
    "HealthMonitor",
    "format_health_report",
    "get_monitor",
    "load_health_jsonl",
    "Metric",
    "MetricRegistry",
    "TelemetryConfig",
    "get_registry",
]

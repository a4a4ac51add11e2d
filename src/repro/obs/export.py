"""Exporters for collected traces and metrics.

Three output formats, all zero-dependency:

- :func:`chrome_trace` / :func:`write_chrome_trace` -- Chrome trace event
  JSON, loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
- :func:`format_table` -- a sorted self/cumulative-time text table.
- :func:`prometheus_text` -- Prometheus-style text exposition unifying a
  :class:`repro.serve.metrics.ServeMetrics` registry snapshot with the
  tracer's counters and span aggregates (served on
  ``GET /metrics?format=text``); every family renders through
  :func:`repro.obs.telemetry.family_lines`.

Plus the offline side behind the ``repro trace`` CLI:
:func:`load_trace_file` / :func:`merge_chrome_traces` fold saved Chrome
traces onto one timeline, and :func:`latency_report` breaks each served
request's latency into queue-wait / batch-assembly / kernel / requant /
reply stages from the ``serve.request`` spans
:class:`~repro.serve.pool.WorkerPool` records while tracing.
"""

from __future__ import annotations

import bisect
import json
import os
import re

import numpy as np

from repro.obs.telemetry import family_lines
from repro.obs.trace import Tracer, get_tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "format_table",
    "prometheus_text",
    "load_trace_file",
    "merge_chrome_traces",
    "stage_breakdown",
    "latency_report",
]


def chrome_trace(tracer: Tracer | None = None) -> dict:
    """Render collected spans as a Chrome trace event JSON object.

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps relative to the tracer's origin; counters and the dropped
    span count ride along in ``otherData``, together with the origin
    itself (absolute ``perf_counter`` seconds of ts=0) so
    :func:`merge_chrome_traces` can rebase multiple exports onto one
    timeline.
    """
    t = tracer or get_tracer()
    pid = os.getpid()
    events = []
    for s in t.spans():
        ev = {
            "name": s.name,
            "cat": s.cat or "span",
            "ph": "X",
            "ts": (s.start - t.origin) * 1e6,
            "dur": s.dur * 1e6,
            "pid": pid,
            "tid": s.tid,
        }
        if s.args:
            ev["args"] = dict(s.args)
        events.append(ev)
    # Spans are stored as they finish (children before parents, request
    # spans long after their start); sorted output keeps the document
    # timeline monotone.
    events.sort(key=lambda ev: ev["ts"])
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": t.counters(),
            "dropped_spans": t.dropped,
            "origin": t.origin,
            "pid": pid,
        },
    }


def write_chrome_trace(path, tracer: Tracer | None = None) -> None:
    """Write :func:`chrome_trace` output as JSON to ``path``."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh)


_SORT_KEYS = {
    "self": lambda s: s.self_s,
    "total": lambda s: s.total_s,
    "calls": lambda s: s.calls,
}


def format_table(tracer: Tracer | None = None, sort: str = "self",
                 top: int | None = None) -> str:
    """Text table of per-span aggregates, sorted by self/total time or calls."""
    if sort not in _SORT_KEYS:
        raise ValueError(f"sort must be one of {sorted(_SORT_KEYS)}, got {sort!r}")
    t = tracer or get_tracer()
    stats = sorted(t.stats().values(), key=_SORT_KEYS[sort], reverse=True)
    total_self = sum(s.self_s for s in stats)
    shown = stats if top is None else stats[:top]

    name_w = max([len(s.name) for s in shown] + [len("span")])
    header = (
        f"{'span':<{name_w}}  {'calls':>8}  {'total ms':>10}  "
        f"{'self ms':>10}  {'mean ms':>9}  {'self %':>6}"
    )
    lines = [header, "-" * len(header)]
    for s in shown:
        mean_ms = (s.total_s / s.calls * 1e3) if s.calls else 0.0
        pct = (s.self_s / total_self * 100.0) if total_self > 0 else 0.0
        lines.append(
            f"{s.name:<{name_w}}  {s.calls:>8}  {s.total_s * 1e3:>10.2f}  "
            f"{s.self_s * 1e3:>10.2f}  {mean_ms:>9.3f}  {pct:>5.1f}%"
        )
    if top is not None and len(stats) > top:
        lines.append(f"... {len(stats) - top} more span name(s)")
    if t.dropped:
        lines.append(f"(raw span buffer full: {t.dropped} span(s) aggregated only)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_text(metrics=None, tracer: Tracer | None = None,
                    registry=None) -> str:
    """Prometheus-style text exposition of serve metrics + tracer data.

    Args:
        metrics: Optional :class:`repro.serve.metrics.ServeMetrics`; its
            registry families (counters, gauges, latency histograms,
            batch sizes, engine-cache stats) are exported first.
        tracer: Tracer whose counters and span aggregates to export
            (defaults to the process-wide tracer).
        registry: Optional :class:`repro.obs.telemetry.MetricRegistry`
            whose families (e.g. the training-health gauges) are appended
            to the exposition.  Explicit rather than implicit so callers
            that want a pure serve/tracer view still get one.
    """
    t = tracer or get_tracer()
    lines: list[str] = []
    if metrics is not None:
        for fam, items in metrics.snapshot():
            lines.extend(fam.prometheus_lines(items))

    spans = sorted(t.stats().values(), key=lambda s: s.name)
    tracer_families = (
        ("repro_trace_counter", "counter",
         "Tracer counters (trainer/engine/sweep events).",
         [("", (("name", _NAME_RE.sub("_", n)),), v)
          for n, v in sorted(t.counters().items())]),
        ("repro_trace_span_calls_total", "counter",
         "Completed span count per span name.",
         [("", (("span", s.name),), s.calls) for s in spans]),
        ("repro_trace_span_seconds_total", "counter",
         "Cumulative wall-clock per span name.",
         [("", (("span", s.name),), s.total_s) for s in spans]),
        ("repro_trace_span_self_seconds_total", "counter",
         "Cumulative self time (minus nested spans) per span name.",
         [("", (("span", s.name),), s.self_s) for s in spans]),
        # Tracer state is always emitted: spans past max_spans drop
        # silently otherwise, and "is tracing even on?" must be
        # answerable from a plain GET /metrics scrape.
        ("repro_trace_enabled", "gauge",
         "1 while span tracing is enabled, 0 otherwise.",
         [("", (), t.enabled)]),
        ("repro_trace_max_spans", "gauge",
         "Raw span buffer capacity (aggregates keep growing past it).",
         [("", (), t.max_spans)]),
        ("repro_trace_dropped_spans_total", "counter",
         "Spans dropped after the raw span buffer filled.",
         [("", (), t.dropped)]),
    )
    for name, kind, help_, samples in tracer_families:
        lines.extend(family_lines(name, kind, help_, samples))
    if registry is not None:
        lines.extend(registry.prometheus_lines())
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Offline merge + report (the `repro trace` CLI).
# ----------------------------------------------------------------------
def load_trace_file(path: str) -> dict:
    """Load one Chrome trace document, ready for :func:`merge_chrome_traces`."""
    with open(path) as fh:
        doc = json.load(fh)
    if "traceEvents" in doc:
        return doc
    raise ValueError(f"{path}: not a Chrome trace (no traceEvents)")


def merge_chrome_traces(docs: list[dict]) -> dict:
    """Merge Chrome-trace documents onto one timeline.

    Every document's ``otherData.origin`` (absolute ``perf_counter``
    seconds of its ts=0) rebases its events against the earliest origin,
    so traces exported by different runs line up.  Counters are merged
    additively where they collide; events come back sorted by timestamp.
    """
    if not docs:
        return {"traceEvents": [], "displayTimeUnit": "ms", "otherData": {}}
    origins = [float(d.get("otherData", {}).get("origin", 0.0)) for d in docs]
    base = min(origins)
    events: list[dict] = []
    dropped = 0
    counters: dict[str, float] = {}
    for doc, origin in zip(docs, origins):
        shift_us = (origin - base) * 1e6
        for event in doc.get("traceEvents", []):
            event = dict(event)
            event["ts"] = event.get("ts", 0.0) + shift_us
            events.append(event)
        other = doc.get("otherData", {})
        dropped += int(other.get("dropped_spans", 0))
        for name, value in other.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    events.sort(key=lambda e: e.get("ts", 0.0))
    merged = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "origin": base,
            "dropped_spans": dropped,
            "merged_from": len(docs),
        },
    }
    if counters:
        merged["otherData"]["counters"] = counters
    return merged


#: Per-request stages reported by :func:`latency_report`.  queue + assembly
#: + (kernel + requant) + reply partition the measured request latency by
#: construction, so the stage table always accounts for ~100% of it.
_STAGES = ("queue_wait", "batch_assembly", "kernel", "requant", "reply")


def _requant_ms_by_batch(events: list[dict]) -> dict:
    """Summed ``serve.requant`` time (ms) inside each traced batch.

    A batch's plan runs on one worker thread inside its
    ``serve.batch_exec`` span, so a requant span belongs to the batch
    whose window on the same ``(pid, tid)`` contains its start.
    """
    windows: dict[tuple, list[tuple[float, float, int]]] = {}
    requants = []
    for event in events:
        if event.get("ph") != "X":
            continue
        name = event.get("name")
        thread = (event.get("pid"), event.get("tid"))
        if name == "serve.batch_exec":
            batch_id = (event.get("args") or {}).get("batch_id")
            if batch_id is not None:
                start = event.get("ts", 0.0)
                windows.setdefault(thread, []).append(
                    (start, start + event.get("dur", 0.0), batch_id)
                )
        elif name == "serve.requant":
            requants.append((thread, event.get("ts", 0.0),
                             event.get("dur", 0.0)))
    for spans in windows.values():
        spans.sort()
    starts = {thread: [w[0] for w in spans] for thread, spans in windows.items()}
    by_batch: dict = {}
    for thread, ts, dur in requants:
        spans = windows.get(thread)
        if not spans:
            continue
        i = bisect.bisect_right(starts[thread], ts) - 1
        if i >= 0 and ts <= spans[i][1]:
            batch_id = spans[i][2]
            by_batch[batch_id] = by_batch.get(batch_id, 0.0) + dur / 1000.0
    return by_batch


def stage_breakdown(doc: dict) -> dict:
    """Extract per-request stage samples (milliseconds) from a trace.

    ``serve.request`` spans carry the stage split in their args
    (queue/assembly/exec/transit, see
    :meth:`repro.serve.pool.WorkerPool._record_request_spans`); the
    ``serve.requant`` spans of each batch's plan run split the requant
    time out of the kernel stage.
    """
    events = doc.get("traceEvents", [])
    requant_by_batch = _requant_ms_by_batch(events)
    requests = [
        event["args"] for event in events
        if event.get("ph") == "X" and event.get("name") == "serve.request"
        and "total_ms" in (event.get("args") or {})
    ]
    samples: dict[str, list[float]] = {name: [] for name in _STAGES}
    samples["total"] = []
    batch_ids = set()
    for args in requests:
        requant_ms = requant_by_batch.get(args.get("batch_id"), 0.0)
        exec_ms = float(args.get("exec_ms", 0.0))
        requant_ms = min(requant_ms, exec_ms)
        samples["queue_wait"].append(float(args.get("queue_ms", 0.0)))
        samples["batch_assembly"].append(float(args.get("assembly_ms", 0.0)))
        samples["kernel"].append(exec_ms - requant_ms)
        samples["requant"].append(requant_ms)
        samples["reply"].append(float(args.get("transit_ms", 0.0)))
        samples["total"].append(float(args.get("total_ms", 0.0)))
        if args.get("batch_id") is not None:
            batch_ids.add(args["batch_id"])
    return {
        "samples": samples,
        "n_requests": len(requests),
        "n_batches": len(batch_ids),
        "dropped_spans": int(
            doc.get("otherData", {}).get("dropped_spans", 0)
        ),
    }


def latency_report(doc: dict) -> str:
    """Text table breaking request latency into pipeline stages."""
    info = stage_breakdown(doc)
    samples = info["samples"]
    lines = [
        f"== request latency stages "
        f"(n={info['n_requests']} requests, {info['n_batches']} batches, "
        f"{info['dropped_spans']} dropped spans) ==",
    ]
    if not info["n_requests"]:
        lines.append("no serve.request spans found "
                     "(was the server traced? see `repro serve --trace`)")
        return "\n".join(lines)
    totals = np.asarray(samples["total"], dtype=np.float64)
    mean_total = float(totals.mean())
    header = (f"{'stage':<16}{'p50 ms':>10}{'p95 ms':>10}{'p99 ms':>10}"
              f"{'mean ms':>10}{'share':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    attributed = 0.0
    for name in _STAGES:
        vals = np.asarray(samples[name], dtype=np.float64)
        mean = float(vals.mean())
        attributed += mean
        share = 100.0 * mean / mean_total if mean_total > 0 else 0.0
        lines.append(
            f"{name:<16}"
            f"{float(np.percentile(vals, 50)):>10.3f}"
            f"{float(np.percentile(vals, 95)):>10.3f}"
            f"{float(np.percentile(vals, 99)):>10.3f}"
            f"{mean:>10.3f}{share:>7.1f}%"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<16}"
        f"{float(np.percentile(totals, 50)):>10.3f}"
        f"{float(np.percentile(totals, 95)):>10.3f}"
        f"{float(np.percentile(totals, 99)):>10.3f}"
        f"{mean_total:>10.3f}{100.0:>7.1f}%"
    )
    coverage = 100.0 * attributed / mean_total if mean_total > 0 else 0.0
    lines.append(f"stage coverage: {coverage:.1f}% of mean request latency")
    return "\n".join(lines)

"""Thread-safe metric registry and telemetry lifecycle (``repro.obs``).

The registry holds *metric families* -- :class:`Metric` objects of kind
``counter``, ``gauge`` (a stored value, or a function sampled at read
time), or ``histogram``, each with a fixed set of label names -- and
renders them to a JSON-friendly dict snapshot and the Prometheus text
exposition (``GET /metrics`` / ``GET /metrics?format=text``).  A
histogram cell keeps bucket counts, exact count/sum/min/max, and a ring
of its latest :data:`RING_SIZE` samples for p50/p95/p99, so it is the
one histogram type.  :func:`family_lines` is the one ``# HELP``/``# TYPE``
writer.

Every serving metric lives in a registry
(:class:`repro.serve.metrics.ServeMetrics` owns one per deployment), and
the training-health probes in :mod:`repro.obs.health` publish their
per-layer gauges to the process-wide registry returned by
:func:`get_registry`, so serve and telemetry share one export path.

Telemetry is **default-off** and sampling-based:

- ``REPRO_TELEMETRY=1`` in the environment (read at import time), or an
  explicit :func:`enable` call, turns the health probes on.
- With telemetry disabled every probe site is a single attribute check
  and training is bit-identical to an uninstrumented build
  (``benchmarks/bench_telemetry.py`` gates this).
- With telemetry enabled, probes fire every
  :attr:`TelemetryConfig.sample_every` calls per site and inspect at
  most :attr:`TelemetryConfig.sample_cols` GEMM columns, keeping the
  per-step overhead under the 10% bench gate.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import math
import os
import re
import threading
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.errors import ReproError

__all__ = [
    "TELEMETRY_ENV",
    "TelemetryConfig",
    "HistogramCell",
    "Metric",
    "MetricRegistry",
    "family_lines",
    "get_registry",
    "enable",
    "disable",
    "is_enabled",
    "env_requested",
]

#: Environment variable enabling telemetry at import time ("1"/"true"/"on").
TELEMETRY_ENV = "REPRO_TELEMETRY"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds (fractions/rates fit [0, 1]).
DEFAULT_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

#: Latest samples each histogram cell keeps for its percentiles.
RING_SIZE = 4096


@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling and threshold knobs for the health probes.

    Attributes:
        sample_every: Probe every N-th call per probe site (1 = always).
        sample_cols: Max GEMM columns a probe inspects per firing.
        saturation_threshold: Clip-rate above which the anomaly monitor
            records a ``saturation`` event for the layer.
        coverage_grid: Side length of the downsampled (W, X) coverage
            grid persisted per epoch (full-resolution counts stay
            in-process only).
        jsonl_path: Optional per-run JSONL file receiving one health
            record per epoch flush (alongside ``RunRecord`` journals).
    """

    sample_every: int = 8
    sample_cols: int = 32
    saturation_threshold: float = 0.5
    coverage_grid: int = 16
    jsonl_path: str | None = None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    return f"{v:.9g}"


_LABEL_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def family_lines(name: str, kind: str, help_: str, samples) -> list[str]:
    """The one Prometheus writer: ``# HELP``/``# TYPE`` plus samples.

    ``samples`` are ``(suffix, labels, value)``, ``labels`` a sequence of
    ``(label, value)`` pairs.  NaN and non-numeric values are skipped (the
    text stays NaN-free); a family with no sample left renders nothing.
    """
    body: list[str] = []
    for suffix, labels, value in samples:
        try:
            if math.isnan(float(value)):
                continue
        except (TypeError, ValueError):
            continue
        labelstr = ",".join(f'{n}="{str(v).translate(_LABEL_ESCAPES)}"'
                            for n, v in labels)
        series = f"{name}{suffix}{{{labelstr}}}" if labelstr else name + suffix
        body.append(f"{series} {_fmt(value)}")
    if not body:
        return []
    return [f"# HELP {name} {help_ or name}", f"# TYPE {name} {kind}"] + body


class HistogramCell:
    """One label set of a histogram family.

    Bucket counts (the last slot counts samples above the top bound),
    exact count / sum / min / max, and a ring holding the latest
    :data:`RING_SIZE` samples for :meth:`percentiles`, so quantiles track
    current behaviour at any traffic volume.  A cell has no lock of its
    own: the registry lock guards live cells, and readers get copies.
    """

    __slots__ = ("counts", "sum", "count", "min", "max", "ring")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self.ring = np.empty(RING_SIZE, dtype=np.float64)

    def copy(self) -> "HistogramCell":
        cell = copy.copy(self)
        cell.counts = list(self.counts)
        cell.ring = self.ring[: min(self.count, RING_SIZE)].copy()
        return cell

    def percentiles(self, qs) -> list[float]:
        """Several percentiles of the ring from one sort.

        NaN, not 0.0, on zero samples: a 0 ms percentile reads as "very
        fast", NaN reads as "no data" (and survives the JSON path --
        json.dumps emits NaN by default).
        """
        if not self.count:
            return [math.nan] * len(qs)
        ring = self.ring[: min(self.count, RING_SIZE)]
        return [float(v) for v in np.percentile(ring, list(qs))]


def _sampled(items: list) -> list:
    """Items with function gauges replaced by one call's result."""
    return [(key, value() if callable(value) else value)
            for key, value in items]


class Metric:
    """One metric family: a name, a kind, and per-label-set values.

    Obtained from :meth:`MetricRegistry.counter` / ``gauge`` /
    ``histogram``; all mutation goes through the owning registry's lock,
    so a family can be updated concurrently from trainer, serve-pool,
    and HTTP threads.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help_: str,
        labelnames: tuple[str, ...],
        lock: threading.Lock,
        buckets: tuple[float, ...] | None = None,
    ):
        if not _NAME_RE.match(name):
            raise ReproError(f"illegal metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ReproError(f"illegal label name {label!r} on {name}")
        self.name = name
        self.kind = kind
        self.help = help_
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets else None
        self._lock = lock
        # counter/gauge: labelvalues -> number (or, for a function gauge,
        # the callable sampled at read time).
        # histogram: labelvalues -> HistogramCell.
        self._values: dict[tuple[str, ...], object] = {}

    # ------------------------------------------------------------------
    def _key(self, labels: dict) -> tuple[str, ...]:
        if len(labels) == len(self.labelnames):
            try:
                return tuple([str(labels[n]) for n in self.labelnames])
            except KeyError:
                pass
        raise ReproError(
            f"{self.name} expects labels {self.labelnames}, "
            f"got {tuple(sorted(labels))}"
        )

    def inc(self, n=1, **labels) -> None:
        """Add ``n`` (counter/gauge only; counters must not decrease)."""
        if self.kind == "histogram":
            raise ReproError(f"{self.name} is a histogram; use observe()")
        if self.kind == "counter" and n < 0:
            raise ReproError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + n

    def set(self, value, **labels) -> None:
        """Set the current value (gauges only)."""
        if self.kind != "gauge":
            raise ReproError(f"{self.name} is a {self.kind}; set() is gauge-only")
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Sample this gauge from ``fn()`` at every read, outside the lock
        (``fn`` may take locks of its own, e.g. to read a queue depth)."""
        self.set(fn, **labels)

    def observe(self, value, **labels) -> None:
        """Record one sample (histograms only)."""
        if self.kind != "histogram":
            raise ReproError(f"{self.name} is a {self.kind}; observe() "
                             "is histogram-only")
        key = self._key(labels)
        with self._lock:
            cell = self._values.get(key)
            if cell is None:
                cell = self._values[key] = HistogramCell(len(self.buckets))
            cell.counts[bisect.bisect_left(self.buckets, value)] += 1
            cell.ring[cell.count % RING_SIZE] = value
            cell.sum += value
            cell.count += 1
            if value < cell.min:
                cell.min = value
            if value > cell.max:
                cell.max = value

    def value(self, **labels):
        """Current value for one label set (0 when never touched).

        A histogram's value is its sample count.
        """
        key = self._key(labels)
        with self._lock:
            value = self._values.get(key, 0)
            if self.kind == "histogram":
                return value.count if value else 0
        return value() if callable(value) else value

    def _snapshot_items_locked(self) -> list[tuple[tuple[str, ...], object]]:
        """Copied ``(labelvalues, value)`` pairs; caller holds the lock.

        Histogram cells are mutated in place by ``observe``, so handing
        out the live cells would let an exporter render a bucket list
        from one instant and the sum/count from another.  Copying under
        the lock pins every cell to a single consistent instant.
        Function gauges come back as their callables (see
        :func:`_sampled`).
        """
        hist = self.kind == "histogram"
        return [(key, value.copy() if hist else value)
                for key, value in sorted(self._values.items())]

    def items(self) -> list[tuple[tuple[str, ...], object]]:
        """Consistent snapshot of ``(labelvalues, value)``, sorted by labels.

        Histogram values are :class:`HistogramCell` copies -- safe to
        render while writers keep observing.
        """
        with self._lock:
            items = self._snapshot_items_locked()
        return _sampled(items)

    # ------------------------------------------------------------------
    def as_dict(self, items=None) -> dict:
        """JSON-friendly snapshot of this family.

        ``items`` lets :meth:`MetricRegistry.snapshot` render from an
        already-taken atomic snapshot instead of re-reading live state.
        """
        samples = []
        for key, value in (self.items() if items is None else items):
            labels = dict(zip(self.labelnames, key))
            if self.kind == "histogram":
                samples.append({
                    "labels": labels,
                    "buckets": dict(zip(map(str, self.buckets), value.counts)),
                    "sum": value.sum,
                    "count": value.count,
                })
            else:
                samples.append({"labels": labels, "value": value})
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "samples": samples,
        }

    def prometheus_lines(self, items=None) -> list[str]:
        """``# HELP``/``# TYPE`` plus one line per sample (NaN skipped).

        A histogram renders cumulative ``_bucket`` lines (``+Inf`` equal
        to ``_count``), then ``_sum`` and ``_count``, per label set.
        """
        samples = []
        for key, value in (self.items() if items is None else items):
            labels = tuple(zip(self.labelnames, key))
            if self.kind != "histogram":
                samples.append(("", labels, value))
                continue
            for hi, cum in zip(self.buckets, itertools.accumulate(value.counts)):
                samples.append(("_bucket", labels + (("le", _fmt(hi)),), cum))
            samples += [("_bucket", labels + (("le", "+Inf"),), value.count),
                        ("_sum", labels, value.sum),
                        ("_count", labels, value.count)]
        return family_lines(self.name, self.kind, self.help, samples)


class MetricRegistry:
    """Thread-safe collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent per name: a
    second call with the same kind and labels returns the existing
    family (so call sites don't need to coordinate creation), while a
    kind or label mismatch raises -- silently merging two different
    shapes under one name is how exporters end up lying.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def _family(self, name, kind, help_, labelnames, buckets=None) -> Metric:
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if fam.kind != kind or fam.labelnames != tuple(labelnames):
                    raise ReproError(
                        f"metric {name!r} already registered as "
                        f"{fam.kind}{fam.labelnames}, requested "
                        f"{kind}{tuple(labelnames)}"
                    )
                return fam
            fam = Metric(name, kind, help_, tuple(labelnames), self._lock,
                         buckets=buckets)
            self._families[name] = fam
            return fam

    def counter(self, name: str, help_: str = "",
                labelnames: tuple[str, ...] = ()) -> Metric:
        """A monotonically increasing counter family."""
        return self._family(name, "counter", help_, labelnames)

    def gauge(self, name: str, help_: str = "",
              labelnames: tuple[str, ...] = ()) -> Metric:
        """A set-to-current-value gauge family."""
        return self._family(name, "gauge", help_, labelnames)

    def histogram(self, name: str, help_: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Metric:
        """A fixed-bucket histogram family (cells also keep quantiles)."""
        return self._family(name, "histogram", help_, labelnames,
                            buckets=tuple(sorted(buckets)))

    # ------------------------------------------------------------------
    def families(self) -> list[Metric]:
        with self._lock:
            return sorted(self._families.values(), key=lambda m: m.name)

    def snapshot(self) -> list[tuple[Metric, list]]:
        """Atomic ``(family, items)`` snapshot of the whole registry.

        Every family shares this registry's lock, so one acquisition
        pins all of them to a single instant: an exporter rendering from
        this snapshot can never show a half-updated histogram or two
        counters from different moments.  Reads each family's raw state
        directly (the shared lock is non-reentrant -- calling the
        family's own locking accessors here would deadlock).  Function
        gauges are sampled just after the lock is released.
        """
        with self._lock:
            fams = sorted(self._families.values(), key=lambda m: m.name)
            snap = [(fam, fam._snapshot_items_locked()) for fam in fams]
        return [(fam, _sampled(items)) for fam, items in snap]

    def as_dict(self) -> dict:
        """JSON-friendly snapshot: ``{family_name: family_dict}``."""
        return {
            fam.name: fam.as_dict(items) for fam, items in self.snapshot()
        }

    def prometheus_lines(self) -> list[str]:
        """Prometheus text lines for every non-empty family.

        Rendered from one atomic :meth:`snapshot`, so concurrent writers
        can never produce a torn exposition.
        """
        lines: list[str] = []
        for fam, items in self.snapshot():
            lines.extend(fam.prometheus_lines(items))
        return lines

    def reset(self) -> None:
        """Drop every family (tests / fresh runs)."""
        with self._lock:
            self._families.clear()


_REGISTRY = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The process-wide telemetry registry."""
    return _REGISTRY


# ----------------------------------------------------------------------
# Lifecycle.  The actual probe state lives in repro.obs.health; these
# helpers mirror trace.enable()/disable() so call sites configure
# telemetry without importing the monitor module.
def env_requested() -> bool:
    """Whether ``REPRO_TELEMETRY`` asks for telemetry (default off)."""
    return os.environ.get(TELEMETRY_ENV, "").strip().lower() in (
        "1", "true", "on", "yes"
    )


def enable(jsonl_path: str | None = None, **overrides) -> None:
    """Turn the health probes on.

    Args:
        jsonl_path: Optional per-run health JSONL destination.
        **overrides: :class:`TelemetryConfig` field overrides
            (``sample_every``, ``sample_cols``, ...).
    """
    from repro.obs.health import get_monitor

    config = replace(TelemetryConfig(), jsonl_path=jsonl_path, **overrides)
    get_monitor().configure(config)


def disable() -> None:
    """Turn the health probes off (probe sites return to no-ops)."""
    from repro.obs.health import get_monitor

    get_monitor().shutdown()


def is_enabled() -> bool:
    from repro.obs.health import get_monitor

    return get_monitor().enabled


# REPRO_TELEMETRY=1 is honored at the end of repro.obs.health's import
# (every probe-bearing module pulls the monitor in, so any training
# process gets there).  Calling enable() from *this* module's import
# would re-enter health mid-initialization whenever health is the
# module that triggered the import of telemetry.

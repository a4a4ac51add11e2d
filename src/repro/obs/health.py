"""Training-health probes and anomaly monitor (`repro.obs.health`).

The paper's contribution is a better gradient *estimator* (difference-LUT
vs. STE, Eqs. 4-6); this module observes whether those estimates -- and
the quantized numerics around them -- stay healthy while a retraining run
is in flight:

- **Gradient quality** (per layer): cosine similarity and SNR between the
  difference-LUT weight gradient actually used for the update and an
  exact central-difference reference of the raw AppMult LUT, plus the
  divergence from the STE baseline -- all computed on a deterministic
  sub-sample of GEMM columns, using the very operands/upstream gradient
  of the live backward pass.
- **Quantization health** (per layer): weight/activation saturation
  (clipping) rates from the Eq. 7 clip step, and range drift -- how far
  the live tensors extend beyond the frozen calibration range.
- **LUT coverage** (per engine): a (W, X) operand-pair hit histogram
  exposing dead and hot LUT regions.
- **Anomalies**: structured :class:`HealthEvent` records (and raised
  :class:`~repro.errors.TrainingHealthError` subclasses) on non-finite
  loss/gradients and saturation above threshold.

All probes are *passive*: they read the hot path's intermediates, never
mutate an engine, never consume RNG, and are fully skipped when the
monitor is disabled (a single attribute check per site), so training with
telemetry off -- and, because the sampling is deterministic, with it on
-- is bit-identical to an uninstrumented build.  Per-layer epoch means
are published as gauges on the shared registry
(:func:`repro.obs.telemetry.get_registry`), streamed to a per-run JSONL,
and rendered by ``repro health <run-dir>``.
"""

from __future__ import annotations

import json
import math
import threading
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.errors import (
    NonFiniteGradientError,
    NonFiniteLossError,
    ReproError,
)
from repro.obs.telemetry import TelemetryConfig, env_requested, get_registry

__all__ = [
    "HealthEvent",
    "HealthMonitor",
    "get_monitor",
    "load_health_jsonl",
    "format_health_report",
]

#: SNR (dB) reported when the LUT gradient matches the reference exactly
#: (a true +inf would poison means and the Prometheus text path).
SNR_CAP_DB = 99.0


@dataclass(frozen=True)
class HealthEvent:
    """One structured anomaly raised by the monitor.

    Attributes:
        kind: ``"saturation"`` / ``"nonfinite_loss"`` / ``"nonfinite_grad"``.
        layer: Dotted layer (or parameter) name, "" when model-wide.
        epoch: 0-based epoch the event fired in.
        step: 0-based batch index within the epoch (-1 when unknown).
        value: The offending measurement (saturation rate, loss value...).
        threshold: The limit that was crossed (NaN when not applicable).
        message: Human-readable one-liner.
    """

    kind: str
    layer: str
    epoch: int
    step: int
    value: float
    threshold: float
    message: str

    def as_dict(self) -> dict:
        return asdict(self)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 and nb == 0.0:
        return 1.0  # both estimators agree the gradient is zero
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a.ravel(), b.ravel()) / (na * nb))


def _snr_db(estimate: np.ndarray, reference: np.ndarray) -> float:
    """``10 log10(||ref||^2 / ||est - ref||^2)``, capped to +-SNR_CAP_DB."""
    sig = float(np.sum(reference.astype(np.float64) ** 2))
    err = float(np.sum((estimate - reference).astype(np.float64) ** 2))
    if err == 0.0:
        return SNR_CAP_DB
    if sig == 0.0:
        return -SNR_CAP_DB
    return float(np.clip(10.0 * math.log10(sig / err), -SNR_CAP_DB, SNR_CAP_DB))


_LAYER_METRICS = (
    "grad_cosine", "grad_snr_db", "ste_divergence",
    "w_sat", "x_sat", "w_drift", "x_drift",
)


def _new_layer_acc() -> dict[str, list[float]]:
    return {k: [] for k in _LAYER_METRICS}


class HealthMonitor:
    """Process-wide training-health monitor (see module docstring).

    Hot paths bind the singleton once at import time
    (``_HEALTH = get_monitor()``) and guard every probe with
    ``if _HEALTH.enabled:`` -- the same pattern as the span tracer -- so a
    disabled monitor costs one attribute read per site.
    """

    def __init__(self):
        self.enabled = False
        self.config = TelemetryConfig()
        self._lock = threading.Lock()
        self._layer_names: dict[int, str] = {}
        self._counters: dict[tuple, int] = {}  # per-site probe cadence
        self._epoch_layer: dict[str, dict[str, list[float]]] = {}
        self._epoch_events: list[HealthEvent] = []
        self._event_dedupe: set[tuple] = set()
        self._coverage: dict[str, np.ndarray] = {}  # engine -> flat hits
        self._coverage_levels: dict[str, int] = {}
        self._ref_tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._cur_epoch = 0
        self._run_mean_sat: list[float] = []
        self._run_worst_cosine: list[float] = []
        self._epochs: list[dict] = []

    # ------------------------------------------------------------------
    # Lifecycle (driven by repro.obs.telemetry.enable()/disable()).
    def configure(self, config: TelemetryConfig) -> None:
        """Enable the probes with ``config`` and reset per-run state."""
        if config.sample_every < 1:
            raise ReproError("sample_every must be >= 1")
        if config.sample_cols < 1:
            raise ReproError("sample_cols must be >= 1")
        self.config = config
        self.reset()
        self.enabled = True

    def shutdown(self) -> None:
        """Disable every probe (sites return to single-attribute no-ops)."""
        self.enabled = False

    def reset(self) -> None:
        """Clear all accumulated state (fresh run)."""
        with self._lock:
            self._layer_names.clear()
            self._counters.clear()
            self._epoch_layer = {}
            self._epoch_events = []
            self._event_dedupe = set()
            self._coverage = {}
            self._coverage_levels = {}
            self._cur_epoch = 0
            self._run_mean_sat = []
            self._run_worst_cosine = []
            self._epochs = []

    # ------------------------------------------------------------------
    # Layer naming.
    def register_model(self, model) -> None:
        """Record dotted names for every submodule of ``model``.

        Called by the trainer at fit start so probe records read
        ``features.0`` instead of ``ApproxConv2d@0x7f...``.
        """

        def walk(module, prefix):
            self._layer_names[id(module)] = prefix.rstrip(".") or "model"
            for cname, child in module._children():
                walk(child, f"{prefix}{cname}.")

        with self._lock:
            walk(model, "")

    def _layer_name(self, layer) -> str:
        name = self._layer_names.get(id(layer))
        if name is None:
            name = f"{type(layer).__name__}_{len(self._layer_names)}"
            self._layer_names[id(layer)] = name
        return name

    # ------------------------------------------------------------------
    # Sampling.
    def _should_sample(self, key: tuple) -> bool:
        """Deterministic per-site cadence: every ``sample_every``-th call."""
        with self._lock:
            count = self._counters.get(key, 0)
            self._counters[key] = count + 1
        return count % self.config.sample_every == 0

    def _sample_columns(self, c: int) -> np.ndarray:
        """Deterministic evenly-spaced column subset (no RNG consumed)."""
        take = min(self.config.sample_cols, c)
        return np.unique(np.linspace(0, c - 1, take).astype(np.intp))

    # ------------------------------------------------------------------
    # Probe 1: gradient quality (called from the approx-layer backward).
    def _grad_ref_tables(self, engine) -> tuple[np.ndarray, np.ndarray]:
        key = (engine.multiplier.name, engine.bits, engine.gradients.method)
        tables = self._ref_tables.get(key)
        if tables is None:
            # Local import: repro.core.gradient is a hot-path dependency of
            # the layers that call into this module.
            from repro.core.gradient import (
                raw_difference_gradient_lut,
                ste_gradient_lut,
            )

            ref = np.ascontiguousarray(
                raw_difference_gradient_lut(engine.multiplier.lut(), "w")
                .astype(np.float32).ravel()
            )
            ste = np.ascontiguousarray(
                ste_gradient_lut(
                    engine.bits, "w", signed=engine.multiplier.is_signed
                ).astype(np.float32).ravel()
            )
            with self._lock:
                tables = self._ref_tables.setdefault(key, (ref, ste))
        return tables

    def observe_layer_backward(
        self,
        layer,
        engine,
        wq: np.ndarray,
        xq: np.ndarray,
        gmat: np.ndarray,
        zx: float,
    ) -> None:
        """Compare the live weight gradient against reference estimators.

        Reproduces the engine's Eq. 9 ``grad_w`` math on a sampled column
        subset with three tables -- the engine's own gradient LUT, the
        exact central difference of the raw AppMult, and the STE baseline
        -- and records cosine / SNR / STE-divergence for the layer.
        """
        if not self.enabled or getattr(engine, "forward_only", True):
            return
        if not self._should_sample((id(layer), "grad")):
            return
        sel = self._sample_columns(xq.shape[1])
        xs = xq[:, sel].astype(np.intp)
        gs = np.asarray(gmat, dtype=np.float64)[:, sel]
        idx = (wq.astype(np.intp) * engine.levels)[:, :, None] + xs[None, :, :]
        gsum = gs.sum(axis=1)

        def grad_w(table: np.ndarray) -> np.ndarray:
            picked = np.take(table, idx, mode="clip").astype(np.float64)
            g = (picked * gs[:, None, :]).sum(axis=2)
            g -= zx * gsum[:, None]  # Eq. 8 zero-point cross term
            return g

        ref_table, ste_table = self._grad_ref_tables(engine)
        g_lut = grad_w(engine.grad_w_flat)
        g_ref = grad_w(ref_table)
        g_ste = grad_w(ste_table)
        cos = _cosine(g_lut, g_ref)
        snr = _snr_db(g_lut, g_ref)
        ste_div = 1.0 - _cosine(g_lut, g_ste)
        name = self._layer_name(layer)
        with self._lock:
            acc = self._epoch_layer.setdefault(name, _new_layer_acc())
            acc["grad_cosine"].append(cos)
            acc["grad_snr_db"].append(snr)
            acc["ste_divergence"].append(ste_div)
        self._probe_counter().inc(probe="grad_quality")

    # ------------------------------------------------------------------
    # Probe 2: quantization health (called from the approx-layer forward).
    def observe_saturation(
        self,
        layer,
        wmat: np.ndarray,
        wmask: np.ndarray,
        w_lo, w_hi, x_lo, x_hi,
        float_cols,
    ) -> None:
        """Record clip rates and range drift for one forward pass.

        ``wmask`` is the clipped-STE in-range weight mask the layer
        already computed.  ``float_cols()`` returns the layer's (N, K, L)
        float activation columns; it is called only when this call
        samples, so activation rates stay patch-weighted (a pixel counts
        once per tap) without the layer building columns every step.
        Drift measures how far the live float tensors extend beyond the
        frozen quantization range, normalized by the range span (0 =
        fully inside).
        """
        if not self.enabled:
            return
        if not self._should_sample((id(layer), "sat")):
            return
        cols = float_cols()
        xmask = (cols >= x_lo) & (cols <= x_hi)
        w_sat = 1.0 - float(np.mean(wmask))
        x_sat = 1.0 - float(np.mean(xmask))
        w_span = np.maximum(np.asarray(w_hi, dtype=np.float64) - w_lo, 1e-30)
        x_span = max(float(x_hi) - float(x_lo), 1e-30)
        w_drift = float(np.mean(
            np.maximum(np.maximum(w_lo - wmat, wmat - w_hi), 0.0) / w_span
        ))
        x_drift = float(np.mean(
            np.maximum(np.maximum(x_lo - cols, cols - x_hi), 0.0) / x_span
        ))
        name = self._layer_name(layer)
        with self._lock:
            acc = self._epoch_layer.setdefault(name, _new_layer_acc())
            acc["w_sat"].append(w_sat)
            acc["x_sat"].append(x_sat)
            acc["w_drift"].append(w_drift)
            acc["x_drift"].append(x_drift)
        self._probe_counter().inc(probe="saturation")
        worst = max(w_sat, x_sat)
        if worst > self.config.saturation_threshold:
            self._record_event(
                kind="saturation",
                layer=name,
                step=-1,
                value=worst,
                threshold=self.config.saturation_threshold,
                message=(
                    f"{name}: saturation {worst:.3f} exceeds threshold "
                    f"{self.config.saturation_threshold:.3f} "
                    f"(w={w_sat:.3f}, x={x_sat:.3f})"
                ),
                dedupe=(name, "saturation", self._cur_epoch),
            )

    def observe_fake_quant(self, saturation: float) -> None:
        """Record one standalone ``fake_quantize`` clip rate (histogram)."""
        if not self.enabled:
            return
        if not self._should_sample(("fake_quantize",)):
            return
        get_registry().histogram(
            "repro_health_fake_quant_saturation",
            "Clip rate of standalone fake_quantize() calls.",
        ).observe(float(saturation))

    # ------------------------------------------------------------------
    # Probe 3: LUT coverage (called from LutGemm.product_sums).
    def observe_operands(self, engine, wq: np.ndarray, xq: np.ndarray) -> None:
        """Accumulate the (W, X) operand-pair hit histogram for an engine."""
        if not self.enabled:
            return
        label = self._engine_label(engine)
        if not self._should_sample((label, "coverage")):
            return
        sel = self._sample_columns(xq.shape[1])
        idx = (
            wq.astype(np.intp)[:, :, None] * engine.levels
            + xq[:, sel].astype(np.intp)[None, :, :]
        )
        hits = np.bincount(idx.ravel(), minlength=engine.levels ** 2)
        with self._lock:
            prev = self._coverage.get(label)
            if prev is None:
                self._coverage[label] = hits.astype(np.int64)
                self._coverage_levels[label] = engine.levels
            else:
                prev += hits
        self._probe_counter().inc(probe="coverage")

    @staticmethod
    def _engine_label(engine) -> str:
        method = (
            engine.gradients.method if engine.gradients is not None
            else "forward-only"
        )
        return f"{engine.multiplier.name}/{method}"

    def _coverage_summary(self) -> dict:
        """Coverage/dead/hot stats plus a downsampled grid per engine."""
        grid_n = self.config.coverage_grid
        out: dict[str, dict] = {}
        with self._lock:
            snapshot = {
                label: (hits.copy(), self._coverage_levels[label])
                for label, hits in self._coverage.items()
            }
        for label, (hits, levels) in snapshot.items():
            total = int(hits.sum())
            nonzero = int(np.count_nonzero(hits))
            bins = hits.size
            # Hot fraction: share of all hits landing in the top 1% of bins.
            top = max(1, bins // 100)
            hot = (
                float(np.sort(hits)[-top:].sum() / total) if total else 0.0
            )
            grid = hits.reshape(levels, levels)
            if levels > grid_n and levels % grid_n == 0:
                f = levels // grid_n
                grid = grid.reshape(grid_n, f, grid_n, f).sum(axis=(1, 3))
            out[label] = {
                "total_hits": total,
                "coverage": nonzero / bins,
                "dead": 1.0 - nonzero / bins,
                "hot": hot,
                "grid": grid.tolist(),
            }
        return out

    # ------------------------------------------------------------------
    # Probe 4: anomaly monitor.
    def _probe_counter(self):
        return get_registry().counter(
            "repro_health_probes_total",
            "Health probe firings by probe kind.",
            labelnames=("probe",),
        )

    def _record_event(
        self, kind, layer, step, value, threshold, message, dedupe=None
    ) -> HealthEvent:
        event = HealthEvent(
            kind=kind,
            layer=layer,
            epoch=self._cur_epoch,
            step=step,
            value=float(value),
            threshold=float(threshold),
            message=message,
        )
        with self._lock:
            if dedupe is not None:
                if dedupe in self._event_dedupe:
                    return event
                self._event_dedupe.add(dedupe)
            self._epoch_events.append(event)
        get_registry().counter(
            "repro_health_anomalies_total",
            "Structured training-health anomaly events by kind.",
            labelnames=("kind",),
        ).inc(kind=kind)
        return event

    def nonfinite_loss(
        self, epoch: int, step: int, loss_value: float, last_finite_loss
    ) -> NonFiniteLossError:
        """Record a non-finite-loss event and build the structured error.

        Always returns the error (the trainer raises it even with
        telemetry disabled -- a NaN loss silently poisoning optimizer
        state is a bug, not an observability feature); the event record
        is only kept when the monitor is enabled.
        """
        last = (
            "none" if last_finite_loss is None else f"{last_finite_loss:.6g}"
        )
        message = (
            f"non-finite loss {loss_value} at epoch {epoch + 1} "
            f"batch {step + 1} (last finite loss: {last})"
        )
        if self.enabled:
            self._record_event(
                kind="nonfinite_loss",
                layer="",
                step=step,
                value=loss_value,
                threshold=float("nan"),
                message=message,
            )
        return NonFiniteLossError(
            message,
            epoch=epoch,
            step=step,
            loss_value=loss_value,
            last_finite_loss=last_finite_loss,
        )

    def check_gradients(self, model, epoch: int, step: int) -> None:
        """Raise on any non-finite parameter gradient (probe cadence)."""
        if not self.enabled:
            return
        if not self._should_sample(("model", "grad_finite")):
            return
        for name, param in model.named_parameters():
            grad = param.grad
            if grad is None:
                continue
            if not np.all(np.isfinite(grad)):
                n_bad = int((~np.isfinite(grad)).sum())
                message = (
                    f"non-finite gradient in {name} ({n_bad}/{grad.size} "
                    f"elements) at epoch {epoch + 1} batch {step + 1}"
                )
                self._record_event(
                    kind="nonfinite_grad",
                    layer=name,
                    step=step,
                    value=float(n_bad),
                    threshold=float("nan"),
                    message=message,
                )
                raise NonFiniteGradientError(
                    message, layer=name, epoch=epoch, step=step
                )
        self._probe_counter().inc(probe="grad_finite")

    # ------------------------------------------------------------------
    # Epoch flush + run summary.
    def flush_epoch(self, epoch: int) -> dict:
        """Publish per-layer epoch means and stream one JSONL record.

        Gauges land on the shared registry (exported by ``GET /metrics``
        and the Prometheus text path); the returned record is also
        appended to ``config.jsonl_path`` when set.
        """
        if not self.enabled:
            return {}
        registry = get_registry()
        with self._lock:
            layer_acc, self._epoch_layer = self._epoch_layer, {}
            events, self._epoch_events = self._epoch_events, []
        layers: dict[str, dict[str, float]] = {}
        for name, acc in sorted(layer_acc.items()):
            layers[name] = {
                metric: float(np.mean(vals))
                for metric, vals in acc.items()
                if vals
            }
        grad_gauges = {
            "grad_cosine": registry.gauge(
                "repro_health_grad_cosine",
                "Per-layer cosine(LUT gradient, exact finite-difference "
                "reference), epoch mean.",
                labelnames=("layer",),
            ),
            "grad_snr_db": registry.gauge(
                "repro_health_grad_snr_db",
                "Per-layer gradient SNR vs. the exact reference (dB), "
                "epoch mean.",
                labelnames=("layer",),
            ),
            "ste_divergence": registry.gauge(
                "repro_health_ste_divergence",
                "Per-layer 1 - cosine(LUT gradient, STE gradient), "
                "epoch mean.",
                labelnames=("layer",),
            ),
        }
        sat_gauge = registry.gauge(
            "repro_health_saturation_rate",
            "Per-layer Eq. 7 clip rate, epoch mean.",
            labelnames=("layer", "tensor"),
        )
        drift_gauge = registry.gauge(
            "repro_health_range_drift",
            "Per-layer normalized overshoot beyond the frozen quant "
            "range, epoch mean.",
            labelnames=("layer", "tensor"),
        )
        for name, vals in layers.items():
            for metric, gauge in grad_gauges.items():
                if metric in vals:
                    gauge.set(vals[metric], layer=name)
            for tensor, sat_key, drift_key in (
                ("w", "w_sat", "w_drift"), ("x", "x_sat", "x_drift")
            ):
                if sat_key in vals:
                    sat_gauge.set(vals[sat_key], layer=name, tensor=tensor)
                if drift_key in vals:
                    drift_gauge.set(vals[drift_key], layer=name, tensor=tensor)
        coverage = self._coverage_summary()
        cov_gauge = registry.gauge(
            "repro_health_lut_coverage",
            "LUT operand-pair coverage statistics per engine.",
            labelnames=("engine", "stat"),
        )
        for label, stats in coverage.items():
            for stat in ("coverage", "dead", "hot"):
                cov_gauge.set(stats[stat], engine=label, stat=stat)
        record = {
            "epoch": epoch,
            "layers": layers,
            "coverage": coverage,
            "events": [e.as_dict() for e in events],
        }
        sat_vals = [
            vals[key]
            for vals in layers.values()
            for key in ("w_sat", "x_sat")
            if key in vals
        ]
        cosines = [
            vals["grad_cosine"] for vals in layers.values()
            if "grad_cosine" in vals
        ]
        with self._lock:
            self._run_mean_sat.append(
                float(np.mean(sat_vals)) if sat_vals else 0.0
            )
            self._run_worst_cosine.append(min(cosines) if cosines else 1.0)
            self._epochs.append(record)
            self._cur_epoch = epoch + 1
        if self.config.jsonl_path:
            with Path(self.config.jsonl_path).open("a") as fh:
                fh.write(json.dumps(record) + "\n")
        return record

    def run_summary(self) -> dict:
        """Compact per-epoch summaries for :class:`RunRecord.health`."""
        with self._lock:
            if not self._epochs:
                return {}
            return {
                "mean_sat_rate": list(self._run_mean_sat),
                "worst_grad_cosine": list(self._run_worst_cosine),
            }

    def epoch_records(self) -> list[dict]:
        """All flushed epoch records of the current run."""
        with self._lock:
            return list(self._epochs)


_MONITOR = HealthMonitor()


def get_monitor() -> HealthMonitor:
    """The process-wide health monitor singleton."""
    return _MONITOR


# ----------------------------------------------------------------------
# Report rendering (`repro health <run-dir>`).
def load_health_jsonl(path: str | Path) -> list[dict]:
    """Load per-epoch health records from a run's ``health.jsonl``.

    Mirrors :func:`repro.retrain.logging.read_jsonl`'s crash tolerance: a
    truncated final line (interrupted append) is skipped with a warning,
    corrupt interior lines raise.
    """
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no such health log: {path}")
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    records: list[dict] = []
    for i, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                warnings.warn(
                    f"skipping truncated final line of {path} "
                    "(interrupted append)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            raise ReproError(f"corrupt health record at {path}:{i + 1}")
    return records


def _layer_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in rows)
    return lines


def format_health_report(records: list[dict], width: int = 60) -> str:
    """Render gradient-quality / saturation / coverage / anomaly sections."""
    from repro.analysis.asciiplot import heatmap, line_plot

    if not records:
        return "no health records"
    last = records[-1]
    lines: list[str] = [
        f"training health report ({len(records)} epoch(s), "
        f"last epoch {last.get('epoch', len(records) - 1) + 1})"
    ]

    # -- gradient quality ------------------------------------------------
    lines += ["", "== gradient quality (last epoch means) =="]
    grad_rows = [
        [
            name,
            f"{vals['grad_cosine']:.4f}",
            f"{vals['grad_snr_db']:.1f}",
            f"{vals['ste_divergence']:.4f}",
        ]
        for name, vals in sorted(last.get("layers", {}).items())
        if "grad_cosine" in vals
    ]
    if grad_rows:
        lines += _layer_table(
            ["layer", "cosine", "snr_db", "ste_div"], grad_rows
        )
    else:
        lines.append("  no gradient-quality probes recorded")
    # Epochs without gradient probes (e.g. a float pretrain stage) yield no
    # cosine; drop them rather than feeding NaN to the plotter.
    worst = [
        w
        for rec in records
        if not math.isnan(w := min(
            (v["grad_cosine"] for v in rec.get("layers", {}).values()
             if "grad_cosine" in v),
            default=float("nan"),
        ))
    ]
    if len(worst) >= 2:
        lines += ["", line_plot(
            {"worst-layer cosine": worst}, width=width, height=10,
            y_label="cosine",
        )]

    # -- saturation ------------------------------------------------------
    lines += ["", "== quantization saturation (last epoch means) =="]
    sat_rows = [
        [
            name,
            f"{vals.get('w_sat', float('nan')):.4f}",
            f"{vals.get('x_sat', float('nan')):.4f}",
            f"{vals.get('w_drift', float('nan')):.4f}",
            f"{vals.get('x_drift', float('nan')):.4f}",
        ]
        for name, vals in sorted(last.get("layers", {}).items())
        if "w_sat" in vals or "x_sat" in vals
    ]
    if sat_rows:
        lines += _layer_table(
            ["layer", "w_sat", "x_sat", "w_drift", "x_drift"], sat_rows
        )
    else:
        lines.append("  no saturation probes recorded")
    mean_sat = [
        float(np.mean([
            vals[key]
            for vals in rec.get("layers", {}).values()
            for key in ("w_sat", "x_sat") if key in vals
        ] or [0.0]))
        for rec in records
    ]
    if len(records) >= 2 and sat_rows:
        lines += ["", line_plot(
            {"mean saturation": mean_sat}, width=width, height=10,
            y_label="rate",
        )]

    # -- LUT coverage ----------------------------------------------------
    lines += ["", "== LUT coverage =="]
    coverage = last.get("coverage", {})
    if coverage:
        for label, stats in sorted(coverage.items()):
            lines.append(
                f"  {label}: {stats['coverage'] * 100:.1f}% of operand "
                f"pairs hit, {stats['dead'] * 100:.1f}% dead, "
                f"{stats['hot'] * 100:.1f}% of hits in top-1% bins "
                f"({stats['total_hits']} sampled products)"
            )
            grid = np.asarray(stats.get("grid", []), dtype=np.float64)
            if grid.size:
                lines.append(heatmap(
                    grid, x_label="X operand", y_label="W operand"
                ))
    else:
        lines.append("  no coverage probes recorded")

    # -- anomalies -------------------------------------------------------
    lines += ["", "== anomalies =="]
    events = [e for rec in records for e in rec.get("events", [])]
    if events:
        for e in events:
            lines.append(
                f"  [epoch {e['epoch'] + 1}] {e['kind']}: {e['message']}"
            )
    else:
        lines.append("  none")
    return "\n".join(lines)


# REPRO_TELEMETRY=1 enables the probes at import time.  The check lives
# here rather than in repro.obs.telemetry because telemetry's import-time
# enable() would re-enter this module while it is still initializing
# (health imports telemetry at its top); by this line the monitor
# singleton above is fully constructed.
if env_requested():  # pragma: no cover - exercised via subprocess in CI
    _MONITOR.configure(TelemetryConfig())

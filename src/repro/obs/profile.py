"""Profiling drivers behind the ``repro profile`` CLI subcommand.

Two canned workloads, both traced end-to-end with :mod:`repro.obs.trace`:

- :func:`profile_retrain` -- a short LeNet-scale AppMult retrain (build,
  convert, calibrate, freeze, ``Trainer.fit``, eval), the workload whose
  hotspots every training-perf PR is judged against.
- :func:`profile_serve` -- a canned inference load pushed through the
  micro-batching :class:`~repro.serve.pool.WorkerPool`.

Each returns a :class:`ProfileReport` with the Chrome-trace path (when
requested), the sorted hotspot table, and the root-span wall-clock
coverage (fraction of measured wall time inside the root span -- a sanity
check that tracing actually observed the run).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import trace as _trace
from repro.obs.export import format_table, write_chrome_trace


@dataclass
class ProfileReport:
    """Result of one profiling run."""

    mode: str
    wall_s: float
    coverage: float  # root-span duration / measured wall-clock
    span_count: int
    dropped_spans: int
    table: str
    trace_path: str | None = None
    top: list[tuple[str, float]] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"profiled {self.mode}: {self.wall_s:.2f}s wall, "
            f"{self.span_count} span(s), "
            f"trace coverage {self.coverage * 100.0:.1f}%",
        ]
        if self.dropped_spans:
            lines.append(
                f"span buffer full: {self.dropped_spans} span(s) kept as "
                "aggregates only"
            )
        if self.trace_path:
            lines.append(f"chrome trace written to {self.trace_path}")
        return "\n".join(lines)


def _report(mode: str, tracer: _trace.Tracer, wall_s: float,
            trace_path, sort: str, top: int) -> ProfileReport:
    stats = tracer.stats()
    root = stats.get((f"profile.{mode}", "profile"))
    coverage = (root.total_s / wall_s) if root is not None and wall_s > 0 else 0.0
    if trace_path:
        write_chrome_trace(trace_path, tracer)
    hotspots = sorted(stats.values(), key=lambda s: s.self_s, reverse=True)
    return ProfileReport(
        mode=mode,
        wall_s=wall_s,
        coverage=coverage,
        span_count=len(tracer.spans()),
        dropped_spans=tracer.dropped,
        table=format_table(tracer, sort=sort, top=top),
        trace_path=str(trace_path) if trace_path else None,
        top=[(s.name, s.self_s) for s in hotspots[:top]],
    )


def profile_retrain(
    multiplier: str = "mul6u_rm4",
    arch: str = "lenet",
    epochs: int = 1,
    n_train: int = 96,
    image_size: int = 12,
    batch_size: int = 32,
    method: str = "difference",
    seed: int = 0,
    trace_path=None,
    sort: str = "self",
    top: int = 15,
) -> ProfileReport:
    """Trace a short retrain end-to-end; returns a :class:`ProfileReport`."""
    from repro.data.dataset import DataLoader
    from repro.multipliers.registry import get_multiplier
    from repro.retrain.convert import approximate_model, calibrate, freeze
    from repro.retrain.experiment import ExperimentScale, build_model, load_data
    from repro.retrain.trainer import TrainConfig, Trainer, evaluate

    scale = ExperimentScale(
        image_size=image_size,
        n_train=n_train,
        n_test=max(n_train // 4, 32),
        retrain_epochs=epochs,
        batch_size=batch_size,
        seed=seed,
    )
    tracer = _trace.get_tracer()
    tracer.reset()
    tracer.enable()
    t0 = time.perf_counter()
    try:
        with tracer.span("profile.retrain", cat="profile"):
            train, test = load_data(scale)
            with tracer.span("profile.convert", cat="profile"):
                model = approximate_model(
                    build_model(arch, scale),
                    get_multiplier(multiplier),
                    gradient_method=method,
                    chunk=scale.chunk,
                )
            loader = DataLoader(train, batch_size=batch_size, seed=seed)
            with tracer.span("profile.calibrate", cat="profile"):
                calibrate(model, loader, batches=2)
                freeze(model)
            trainer = Trainer(
                model,
                TrainConfig(epochs=epochs, batch_size=batch_size, seed=seed),
            )
            trainer.fit(train)
            evaluate(model, test)
    finally:
        wall_s = time.perf_counter() - t0
        tracer.disable()
    return _report("retrain", tracer, wall_s, trace_path, sort, top)


def profile_serve(
    multiplier: str = "mul6u_rm4",
    arch: str = "lenet",
    requests: int = 64,
    workers: int = 2,
    image_size: int = 12,
    seed: int = 0,
    trace_path=None,
    sort: str = "self",
    top: int = 15,
) -> ProfileReport:
    """Trace a canned inference load through the serving worker pool."""
    from repro.data.dataset import DataLoader
    from repro.multipliers.registry import get_multiplier
    from repro.retrain.convert import approximate_model, calibrate, freeze
    from repro.retrain.experiment import ExperimentScale, build_model, load_data
    from repro.serve.metrics import ServeMetrics
    from repro.serve.plan import compile_plan
    from repro.serve.pool import WorkerPool

    scale = ExperimentScale(
        image_size=image_size,
        n_train=max(requests, 64),
        n_test=32,
        seed=seed,
    )
    train, _ = load_data(scale)
    model = approximate_model(
        build_model(arch, scale),
        get_multiplier(multiplier),
        gradient_method="none",
        chunk=scale.chunk,
    )
    calibrate(model, DataLoader(train, batch_size=32, seed=seed), batches=2)
    freeze(model)
    model.eval()

    rng = np.random.default_rng(seed)
    samples = train.images[rng.integers(0, len(train), size=requests)]

    tracer = _trace.get_tracer()
    tracer.reset()
    tracer.enable()
    t0 = time.perf_counter()
    try:
        with tracer.span("profile.serve", cat="profile"):
            metrics = ServeMetrics()
            pool = WorkerPool(
                plan_factory=lambda: compile_plan(model),
                workers=workers,
                queue_size=max(requests, 64),
                metrics=metrics,
            ).start()
            try:
                futures = [pool.submit(x) for x in samples]
                for fut in futures:
                    fut.result(timeout=60.0)
            finally:
                pool.shutdown()
    finally:
        wall_s = time.perf_counter() - t0
        tracer.disable()
    return _report("serve", tracer, wall_s, trace_path, sort, top)

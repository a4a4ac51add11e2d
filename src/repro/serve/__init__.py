"""Compiled inference serving runtime.

Turns a trained (calibrated + frozen) approximate model into a production
inference stack, with no autograd tape and no gradient LUTs:

- :mod:`repro.serve.plan` -- compiles a model into an
  :class:`~repro.serve.plan.InferencePlan`, a flat list of numpy/LUT-GEMM
  ops that is bit-identical to the eval-mode training-graph forward.
- :mod:`repro.serve.scheduler` -- micro-batching request queue
  (:class:`~repro.serve.scheduler.MicroBatcher`) that coalesces concurrent
  single-sample requests and sheds load when full.
- :mod:`repro.serve.pool` -- :class:`~repro.serve.pool.WorkerPool`, the
  one serving back end: worker threads in this process, each reusing its
  own compiled plan (the LUT-GEMM kernels release the GIL).
- :mod:`repro.serve.metrics` -- counters, latency histograms (with
  p50/p95/p99), batch-size distribution and engine cache statistics, all
  families of one :class:`~repro.obs.telemetry.MetricRegistry`.
- :mod:`repro.serve.http` -- stdlib JSON endpoint
  (``/predict``, ``/healthz``, ``/metrics``) behind ``repro serve``.
"""

from repro.serve.metrics import ServeMetrics
from repro.serve.plan import (
    InferencePlan,
    PlanOp,
    assert_integer_core,
    compile_plan,
    fuse_integer_plan,
    integer_core_report,
    register_compiler,
    verify_plan,
)
from repro.serve.scheduler import MicroBatcher, PendingRequest
from repro.serve.pool import WorkerPool
from repro.serve.http import (
    ServingHTTPServer,
    install_shutdown_handlers,
    make_server,
)

__all__ = [
    "InferencePlan",
    "MicroBatcher",
    "PendingRequest",
    "ServeMetrics",
    "ServingHTTPServer",
    "PlanOp",
    "WorkerPool",
    "assert_integer_core",
    "compile_plan",
    "fuse_integer_plan",
    "install_shutdown_handlers",
    "integer_core_report",
    "make_server",
    "register_compiler",
    "verify_plan",
]

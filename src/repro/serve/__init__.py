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
  one serving front end (submit, delivery, error fan-out, drain) over
  threads, each reusing its own compiled plan.
- :mod:`repro.serve.metrics` -- counters, latency percentiles, batch-size
  distribution, engine cache statistics.
- :mod:`repro.serve.http` -- stdlib JSON endpoint
  (``/predict``, ``/healthz``, ``/metrics``) behind ``repro serve``.
- :mod:`repro.serve.shm` / :mod:`repro.serve.shard` /
  :mod:`repro.serve.supervisor` -- sharded multi-process serving:
  :class:`~repro.serve.shm.SharedLutStore` publishes LUT tables and
  requant constants into shared memory once per host,
  :class:`~repro.serve.shard.ShardServer` is a ``WorkerPool`` whose N
  workers are forked processes, and
  :class:`~repro.serve.supervisor.Supervisor` respawns crashed or hung
  workers with capped backoff (``repro serve --sharded``).
"""

from repro.serve.metrics import LatencyHistogram, ServeMetrics
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
from repro.serve.shm import SharedArraySpec, SharedLutStore
from repro.serve.supervisor import Supervisor, WorkerHandle
from repro.serve.shard import ShardServer

__all__ = [
    "InferencePlan",
    "LatencyHistogram",
    "MicroBatcher",
    "PendingRequest",
    "ServeMetrics",
    "ServingHTTPServer",
    "SharedArraySpec",
    "SharedLutStore",
    "ShardServer",
    "Supervisor",
    "PlanOp",
    "WorkerHandle",
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

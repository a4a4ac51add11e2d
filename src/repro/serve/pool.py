"""Inference worker pool with backpressure and graceful drain.

Each worker owns its own compiled :class:`~repro.serve.plan.InferencePlan`
(compiled once at thread start and reused for every batch -- plans built
with ``private_engines=True`` so the LUT-GEMM scratch buffers are never
shared across threads).  Work arrives pre-coalesced from the
:class:`~repro.serve.scheduler.MicroBatcher`; a full queue rejects with
:class:`~repro.errors.ServerBusyError` (HTTP 503) instead of queueing
without bound, and :meth:`WorkerPool.shutdown` drains in-flight work before
joining the threads.  :class:`~repro.serve.shard.ShardServer` reuses all of
this with forked worker processes in place of the threads.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from repro.errors import ServeError
from repro.obs.trace import get_tracer
from repro.serve.metrics import ServeMetrics
from repro.serve.plan import InferencePlan
from repro.serve.scheduler import MicroBatcher, PendingRequest

_TRACE = get_tracer()


class WorkerPool:
    """Runs compiled plans over micro-batches on ``workers`` threads.

    The front half of every serving front end: the bounded
    :class:`MicroBatcher`, ``submit`` / ``infer``, result delivery and
    error fan-out, the gauges, and the close / drain / cancel of
    :meth:`shutdown`.  :class:`~repro.serve.shard.ShardServer` subclasses
    it and overrides only how a batch reaches a plan
    (:meth:`_start_workers`, :meth:`_stop_workers`, :attr:`alive_workers`).
    """

    def __init__(
        self,
        plan_factory: Callable[[], InferencePlan],
        workers: int = 2,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        queue_size: int = 64,
        metrics: ServeMetrics | None = None,
    ):
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.metrics = metrics or ServeMetrics()
        self.batcher = MicroBatcher(
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            capacity=queue_size,
            metrics=self.metrics,
        )
        self.metrics.register_gauge("queue_depth", lambda: self.batcher.depth)
        self.metrics.register_gauge("workers", lambda: self.alive_workers)
        self._plan_factory = plan_factory
        self._num_workers = workers
        self._stopping = False
        self._started = False
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Start the workers (idempotent)."""
        if not self._started:
            self._started = True
            self._start_workers()
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def alive_workers(self) -> int:
        """Live workers: threads here, worker processes in the shard."""
        return sum(1 for t in self._threads if t.is_alive())

    def _compile(self) -> InferencePlan:
        """Build one plan and publish its op summary to ``/metrics``."""
        with _TRACE.span("serve.plan_compile", cat="serve"):
            plan = self._plan_factory()
        summary = getattr(plan, "op_summary", None)
        if summary is not None:  # duck-typed plan stubs lack it
            self.metrics.set_plan_info(summary())
        return plan

    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray) -> PendingRequest:
        """Enqueue one sample for inference; returns a future.

        Raises:
            ServerBusyError: When the bounded queue is full (the caller
                should shed load / return HTTP 503).
            ServeError: When the pool is not running.
        """
        if not self._started or self._stopping:
            raise ServeError("worker pool is not running")
        return self.batcher.submit(x)

    def infer(self, x: np.ndarray, timeout: float | None = 30.0) -> np.ndarray:
        """Blocking convenience wrapper: submit one sample, wait, return."""
        return self.submit(x).result(timeout)

    def _deliver(self, batch: list[PendingRequest], ys, exec_ms: float) -> float:
        """Complete ``batch`` with the plan's outputs; returns the time."""
        done = time.perf_counter()
        for pending, y in zip(batch, ys):
            pending.set_result(np.ascontiguousarray(y))
            self.metrics.observe_latency(
                "request_ms", (done - pending.enqueued_at) * 1000.0
            )
        self.metrics.observe_latency("batch_exec_ms", exec_ms)
        self.metrics.inc("predictions_total", len(batch))
        return done

    def _fail(self, batch: list[PendingRequest], exc: BaseException) -> None:
        """Propagate one error to every waiting caller of ``batch``."""
        self.metrics.inc("errors_total")
        for pending in batch:
            pending.set_error(exc)

    # ------------------------------------------------------------------
    def _start_workers(self) -> None:
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{i}",
                daemon=True,
            )
            for i in range(self._num_workers)
        ]
        for t in self._threads:
            t.start()

    def _worker_loop(self) -> None:
        plan = self._compile()  # compiled once, reused per worker
        while True:
            batch = self.batcher.next_batch(timeout=0.05)
            if batch is None:
                if self._stopping or self.batcher.finished:
                    return
                continue
            self._execute(plan, batch)

    def _execute(self, plan: InferencePlan, batch: list[PendingRequest]) -> None:
        try:
            try:
                xs = np.stack([p.payload for p in batch])
                t0 = time.perf_counter()
                with _TRACE.span("serve.batch_exec", cat="serve"):
                    ys = plan.run(xs)
                self._deliver(batch, ys, (time.perf_counter() - t0) * 1000.0)
            except Exception as exc:
                self._fail(batch, exc)
        finally:
            self.batcher.task_done()

    def _stop_workers(self, timeout: float) -> None:
        for t in self._threads:
            if t.is_alive():
                t.join(timeout)

    # ------------------------------------------------------------------
    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool (idempotent).

        With ``drain=True`` (default) the queue stops accepting new work,
        already-queued requests finish, and workers exit once idle; with
        ``drain=False`` queued requests fail immediately with
        :class:`ServeError`.
        """
        if self._stopping:
            return
        self.batcher.close()
        if drain:
            self.batcher.drain(timeout)
        else:
            self.batcher.cancel_pending()
        # Set only now: during the drain the shard still re-dispatches
        # the batches of a dying worker.  Worker loops leave as soon as
        # the batcher is finished, so none spins until this is set.
        self._stopping = True
        self._stop_workers(timeout)

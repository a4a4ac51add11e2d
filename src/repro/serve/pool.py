"""Inference worker pool with backpressure and graceful drain.

Each worker owns its own compiled :class:`~repro.serve.plan.InferencePlan`
(compiled once by :meth:`WorkerPool.start` and reused for every batch --
plans built with ``private_engines=True`` so the LUT-GEMM scratch buffers
are never shared across threads).  Work arrives pre-coalesced from the
:class:`~repro.serve.scheduler.MicroBatcher`; a full queue rejects with
:class:`~repro.errors.ServerBusyError` (HTTP 503) instead of queueing
without bound, and :meth:`WorkerPool.shutdown` drains in-flight work before
joining the threads.

Threads are the only serving back end: the C kernels behind every plan
op release the GIL, so N threads run N batches at once in one process.
While tracing is on, every answered request leaves one ``serve.request`` span whose args
split its latency into stages (``repro trace`` reports them).
"""

from __future__ import annotations

import itertools
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

    Owns the bounded :class:`MicroBatcher`, ``submit`` / ``infer``, result
    delivery and error fan-out, the gauges, and the close / drain / cancel
    of :meth:`shutdown`.
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
        self._batch_ids = itertools.count(1)  # traced batches only

    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Compile every worker's plan, then start the workers (idempotent).

        Returns once each worker holds its plan, so no request waits
        behind a compile.  A plan factory error shuts the pool down and
        propagates from here instead of leaving a pool with no workers.
        """
        if not self._started:
            try:
                plans = [self._compile() for _ in range(self._num_workers)]
            except BaseException:
                self.shutdown(drain=False)
                raise
            self._started = True
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    args=(plan,),
                    name=f"repro-serve-worker-{i}",
                    daemon=True,
                )
                for i, plan in enumerate(plans)
            ]
            for t in self._threads:
                t.start()
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def alive_workers(self) -> int:
        """Live worker threads (``/healthz`` reports this)."""
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
        """Complete ``batch`` with the plan's outputs; returns the time.

        The single delivery point: every answered request passes here.
        """
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

    def _record_request_spans(self, batch: list[PendingRequest],
                              batch_id: int, started: float,
                              exec_ms: float, done: float) -> None:
        """One ``serve.request`` span per answered request (traced only).

        The args carry the stage split ``repro trace`` reports on: queue
        (submit -> dispatch), assembly (dispatch -> ``plan.run`` start,
        i.e. the ``np.stack``), exec (the plan run), and transit (the
        rest, up to delivery), which partition ``total_ms``.
        """
        for pending in batch:
            total_ms = (done - pending.enqueued_at) * 1000.0
            queue_ms = (pending.dispatched_at - pending.enqueued_at) * 1000.0
            assembly_ms = (started - pending.dispatched_at) * 1000.0
            _TRACE.record_span(
                "serve.request", pending.enqueued_at, total_ms / 1000.0,
                cat="serve",
                args={
                    "trace_id": pending.trace_id,
                    "batch_id": batch_id,
                    "queue_ms": queue_ms,
                    "assembly_ms": assembly_ms,
                    "exec_ms": exec_ms,
                    "transit_ms": total_ms - queue_ms - assembly_ms - exec_ms,
                    "total_ms": total_ms,
                },
            )

    # ------------------------------------------------------------------
    def _worker_loop(self, plan: InferencePlan) -> None:
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
                if _TRACE.enabled:
                    self._execute_traced(plan, xs, batch)
                else:
                    t0 = time.perf_counter()
                    ys = plan.run(xs)
                    self._deliver(batch, ys,
                                  (time.perf_counter() - t0) * 1000.0)
            except Exception as exc:
                self._fail(batch, exc)
        finally:
            self.batcher.task_done()

    def _execute_traced(self, plan: InferencePlan, xs: np.ndarray,
                        batch: list[PendingRequest]) -> None:
        # The batch id tags the plan-run window, so the report can
        # attribute the serve.requant spans inside it (same thread) to
        # this batch's requests.
        batch_id = next(self._batch_ids)
        t0 = time.perf_counter()
        with _TRACE.span("serve.batch_exec", cat="serve",
                         args={"batch_id": batch_id}):
            ys = plan.run(xs)
        exec_ms = (time.perf_counter() - t0) * 1000.0
        done = self._deliver(batch, ys, exec_ms)
        self._record_request_spans(batch, batch_id, t0, exec_ms, done)

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
        # The closed batcher already refuses submits; worker loops leave
        # as soon as it is finished, so none spins until this is set.
        self._stopping = True
        for t in self._threads:
            if t.is_alive():
                t.join(timeout)

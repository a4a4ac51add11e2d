"""Micro-batching request scheduler.

Single-sample requests are the common case for an online endpoint, but the
LUT-GEMM engine amortizes its per-call costs (weight-row index build,
scratch reuse, python dispatch) over the column dimension -- so coalescing
``B`` concurrent single-sample requests into one ``(K, B*L)`` GEMM is close
to a ``B``-fold throughput win.  :class:`MicroBatcher` implements the
standard coalescing queue:

- ``submit`` enqueues a request and returns a :class:`PendingRequest`
  future; a full queue raises :class:`ServerBusyError` (backpressure --
  the HTTP layer maps it to 503) instead of queueing without bound.
- ``next_batch`` (called by pool workers) pops up to ``max_batch``
  requests.  When the system is idle -- nothing else queued, no batch in
  flight -- a lone request executes immediately with zero added latency.
  Under load it waits up to ``max_wait_ms`` for the batch to fill.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

import numpy as np

from repro.errors import ServeError, ServerBusyError
from repro.obs.trace import get_tracer

from repro.serve.metrics import ServeMetrics

_TRACE = get_tracer()

#: Process-wide request/trace id sequence.  Assigned unconditionally at
#: submit time (an int from a counter is free) so tracing can be flipped
#: on without re-plumbing ids through the queue.
_TRACE_IDS = itertools.count(1)


def _remaining(deadline: float | None) -> float | None:
    """Seconds left until ``deadline``, clamped to >= 0 (``None`` = wait
    forever).

    The clamp closes a race: the clock can advance past the deadline
    between a caller's "expired yet?" check and this computation, and
    ``Condition.wait`` must never receive a negative timeout (CPython
    happens to tolerate one today via a non-blocking acquire, but that is
    an implementation detail, not a contract).
    """
    if deadline is None:
        return None
    return max(deadline - time.monotonic(), 0.0)


class PendingRequest:
    """Future for one submitted sample."""

    __slots__ = ("payload", "enqueued_at", "trace_id", "dispatched_at",
                 "deaths", "_event", "_result", "_error")

    def __init__(self, payload: np.ndarray):
        self.payload = payload
        self.enqueued_at = time.perf_counter()
        self.trace_id = next(_TRACE_IDS)
        self.dispatched_at: float | None = None  # stamped by next_batch
        self.deaths = 0  # shard workers that died holding this request
        self._event = threading.Event()
        self._result: np.ndarray | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, value: np.ndarray) -> None:
        self._result = value
        self._event.set()

    def set_error(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until the request completes; re-raises worker errors."""
        if not self._event.wait(timeout):
            raise ServeError("timed out waiting for inference result")
        if self._error is not None:
            raise self._error
        return self._result


class MicroBatcher:
    """Bounded coalescing queue between request producers and workers."""

    def __init__(
        self,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        capacity: int = 64,
        metrics: ServeMetrics | None = None,
    ):
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        if capacity < 1:
            raise ServeError(f"capacity must be >= 1, got {capacity}")
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.capacity = capacity
        self.metrics = metrics
        self._queue: deque[PendingRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._inflight = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of requests currently queued (excluding in-flight)."""
        with self._cond:
            return len(self._queue)

    @property
    def finished(self) -> bool:
        """Closed with nothing queued or in flight: no batch can follow."""
        with self._cond:
            return self._closed and not self._queue and self._inflight == 0

    def submit(self, payload: np.ndarray) -> PendingRequest:
        """Enqueue one sample; raises :class:`ServerBusyError` when full."""
        with self._cond:
            if self._closed:
                raise ServeError("scheduler is shut down")
            if len(self._queue) >= self.capacity:
                if self.metrics is not None:
                    self.metrics.inc("rejected_total")
                raise ServerBusyError(
                    f"request queue full ({self.capacity} pending)"
                )
            pending = PendingRequest(np.asarray(payload))
            self._queue.append(pending)
            _TRACE.count("serve.requests_submitted")
            if self.metrics is not None:
                self.metrics.inc("requests_total")
            self._cond.notify()
        return pending

    def next_batch(self, timeout: float | None = None) -> list[PendingRequest] | None:
        """Pop up to ``max_batch`` coalesced requests (worker side).

        Blocks up to ``timeout`` seconds for the first request; returns
        ``None`` on timeout or when the queue is closed and drained (empty,
        no batch in flight).  A closed queue with a batch still in flight
        keeps waiting, since a re-dispatch may return its requests.  Call
        :meth:`task_done` after executing the returned batch.
        """
        with self._cond:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not self._queue:
                if self._closed and self._inflight == 0:
                    return None
                if deadline is not None and time.monotonic() >= deadline:
                    return None
                self._cond.wait(_remaining(deadline))
            batch = [self._queue.popleft()]
            # Idle fast path: nothing else queued and no batch in flight --
            # execute immediately rather than paying the coalescing wait.
            if self._queue or self._inflight > 0:
                coalesce_start = time.monotonic() if _TRACE.enabled else 0.0
                wait_deadline = time.monotonic() + self.max_wait_ms / 1000.0
                while len(batch) < self.max_batch and not self._closed:
                    if self._queue:
                        batch.append(self._queue.popleft())
                        continue
                    if time.monotonic() >= wait_deadline:
                        break
                    self._cond.wait(_remaining(wait_deadline))
                if _TRACE.enabled:
                    _TRACE.record(
                        "serve.coalesce_wait",
                        time.monotonic() - coalesce_start,
                        cat="serve",
                        args={"batch": len(batch)},
                    )
            self._inflight += 1
        _TRACE.count("serve.batches")
        dispatched = time.perf_counter()
        for pending in batch:
            # Re-dispatch after a worker death re-stamps: the queue wait
            # reported is always the one of the dispatch that answered.
            pending.dispatched_at = dispatched
        if self.metrics is not None:
            self.metrics.observe_batch(len(batch))
            for pending in batch:
                self.metrics.observe_queue_wait(
                    (dispatched - pending.enqueued_at) * 1000.0
                )
        return batch

    def task_done(self) -> None:
        """Mark one batch returned by :meth:`next_batch` as executed."""
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def requeue(self, batch: list[PendingRequest]) -> None:
        """Return a popped batch to the *head* of the queue (re-dispatch).

        Used by the sharded router when a worker dies with the batch in
        flight: the requests go back ahead of newer traffic (preserving
        their relative order) and the batch's in-flight slot is released,
        so :meth:`drain` keeps meaning "every accepted request resolved".
        Bypasses the capacity bound -- these requests were already
        admitted once and must not be shed on the way back in.
        """
        with self._cond:
            for pending in reversed(batch):
                self._queue.appendleft(pending)
            self._inflight -= 1
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting new requests; queued work may still be drained."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def cancel_pending(self, exc: BaseException | None = None) -> int:
        """Fail every queued (not yet running) request; returns the count."""
        exc = exc or ServeError("server shutting down")
        with self._cond:
            cancelled = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for pending in cancelled:
            pending.set_error(exc)
        return len(cancelled)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty and no batch is in flight."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._queue or self._inflight > 0:
                if deadline is not None and time.monotonic() >= deadline:
                    return False
                self._cond.wait(_remaining(deadline))
            return True

"""Sharded multi-process serving: router + forked plan workers.

The thread :class:`~repro.serve.pool.WorkerPool` shares one interpreter:
whatever of a batch runs in Python holds the GIL.  :class:`ShardServer`
is a :class:`~repro.serve.pool.WorkerPool` whose workers are forked
processes.  It inherits the whole front half (``submit`` / ``infer``,
the micro-batcher, result delivery, error fan-out, ``shutdown``'s
drain) and overrides only how a batch reaches a plan:

- The parent compiles the plan **once**, publishes every LUT table and
  requant constant block into shared memory
  (:class:`~repro.serve.shm.SharedLutStore`), and forks N
  :func:`plan_worker` processes that inherit the compiled plan and the
  mappings -- per-worker incremental memory is scratch buffers only.
- A dispatcher thread sends each coalesced batch to the
  **least-loaded** live worker over a duplex pipe (at most
  :data:`MAX_INFLIGHT` unanswered batches per worker); a collector thread
  completes the futures.
- A :class:`~repro.serve.supervisor.Supervisor` watches sentinels and
  shared-memory heartbeats; a crashed or hung worker is respawned with
  capped backoff and its in-flight requests are **re-dispatched** (results
  a worker reported before dying are kept -- a batch is never both
  answered and re-run; re-execution itself is safe because plans are
  pure).  Each request counts the workers that died holding it; after
  ``MAX_REDISPATCH + 1`` deaths it fails with :class:`ServeError`, so a
  poison request cannot take every worker slot down.

Results are bit-identical to the single-process plan by construction:
workers run the very op closures the parent compiled, over
shared-memory views that :meth:`SharedLutStore.publish_plan` verified
bit-equal to the originals.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import connection
from typing import Callable

import numpy as np

from repro.errors import ServeError
from repro.obs.telemetry import MetricRegistry, get_registry
from repro.obs.trace import get_tracer
from repro.retrain.lifecycle import Heartbeat
from repro.serve.metrics import ServeMetrics
from repro.serve.plan import InferencePlan
from repro.serve.pool import WorkerPool
from repro.serve.scheduler import PendingRequest
from repro.serve.shm import SharedLutStore
from repro.serve.supervisor import HEARTBEAT_S, Supervisor, WorkerHandle

__all__ = ["ShardServer", "plan_worker", "worker_metric_families"]

_TRACE = get_tracer()

#: Batches one worker may hold unanswered.  Two keep a worker busy while
#: the next batch crosses the pipe: quarter-width VGG-19 mul8u_1DMU,
#: sharded x2, max_batch=1, bursts of 8, OPENBLAS_NUM_THREADS=1, 2-vCPU
#: Xeon, reads 182-186 req/s at 2 and 151-166 at 1.
MAX_INFLIGHT = 2
#: Re-dispatches one request survives; it fails on worker death number
#: ``MAX_REDISPATCH + 1``.
MAX_REDISPATCH = 2

#: Latency buckets (milliseconds) for the per-worker batch histogram.
BATCH_MS_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)


def worker_metric_families(registry: MetricRegistry | None = None) -> dict:
    """The per-worker metric families, registered idempotently.

    Lives in the process-wide telemetry registry by default, so the
    families ride along on ``GET /metrics`` (JSON ``"telemetry"`` block)
    and the Prometheus text exposition with zero extra wiring.
    """
    reg = registry if registry is not None else get_registry()
    return {
        "up": reg.gauge(
            "repro_serve_worker_up",
            "1 while the worker process is alive, 0 after it died.",
            labelnames=("worker",),
        ),
        "inflight": reg.gauge(
            "repro_serve_worker_inflight",
            "Batches currently dispatched to the worker and unanswered.",
            labelnames=("worker",),
        ),
        "batches": reg.counter(
            "repro_serve_worker_batches_total",
            "Batches completed by the worker.",
            labelnames=("worker",),
        ),
        "respawns": reg.counter(
            "repro_serve_worker_respawns_total",
            "Times the supervisor respawned the worker slot.",
            labelnames=("worker",),
        ),
        "batch_ms": reg.histogram(
            "repro_serve_worker_batch_ms",
            "Per-batch plan execution time in the worker, milliseconds.",
            labelnames=("worker",),
            buckets=BATCH_MS_BUCKETS,
        ),
    }


# ----------------------------------------------------------------------
# Child process entry point.
def plan_worker(conn, index: int, hb_slab, plan: InferencePlan,
                trace_block=None) -> None:
    """Run batches from ``conn`` through ``plan`` until stopped.

    Forked entry point: ``plan``, ``hb_slab`` (the supervisor's writable
    heartbeat array), and ``trace_block`` (this worker's shm trace block
    when distributed tracing is on) arrive through fork inheritance,
    never pickling.  Protocol (parent -> child / child -> parent)::

        ("batch", id, xs[, trace_ids])  ->  ("result", id, ys, exec_ms)
                                         |  ("error", id, message)
        ("sync", t_send)                ->  ("sync_ack", t_send, t_local)
        ("stop",)                       ->  child exits
        <child start>                   ->  ("ready", pid)

    The ``sync`` exchange calibrates this process's ``perf_counter``
    offset against the router (:func:`repro.obs.dist.estimate_clock_offset`).
    """
    def beat() -> None:
        hb_slab[index] = time.monotonic()

    tracectx = None
    if trace_block is not None and _TRACE.enabled:
        from repro.obs.dist import install_worker_tracing

        tracectx = install_worker_tracing(trace_block)
    beat()
    hb = Heartbeat(HEARTBEAT_S, beat, name=f"shard-worker-{index}-hb").start()
    try:
        conn.send(("ready", os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent went away
            if msg[0] == "stop":
                break
            if msg[0] == "sync":
                conn.send(("sync_ack", msg[1], time.perf_counter()))
                continue
            batch_id, xs = msg[1], msg[2]
            trace_ids = msg[3] if len(msg) > 3 else None
            t0 = time.perf_counter()
            try:
                if tracectx is not None:
                    tracectx.begin_batch(batch_id, trace_ids)
                    try:
                        with _TRACE.span("worker.batch", cat="serve",
                                         args={"batch_id": batch_id}):
                            ys = plan.run(xs)
                    finally:
                        tracectx.end_batch()
                else:
                    ys = plan.run(xs)
                exec_ms = (time.perf_counter() - t0) * 1000.0
                conn.send(("result", batch_id, ys, exec_ms))
            except Exception as exc:  # report, keep serving
                conn.send(("error", batch_id, f"{type(exc).__name__}: {exc}"))
    finally:
        hb.stop(timeout=1.0)
        try:
            conn.close()
        except OSError:
            pass


class _DispatchedBatch:
    """One coalesced batch while it is out at a worker."""

    __slots__ = ("id", "requests", "payload", "sent_at")

    def __init__(self, batch_id: int, requests: list[PendingRequest]):
        self.id = batch_id
        self.requests = requests
        self.payload = np.stack([p.payload for p in requests])
        self.sent_at: float | None = None  # stamped at pipe send


class ShardServer(WorkerPool):
    """Multi-process serving shard: router + N forked plan workers.

    A :class:`~repro.serve.pool.WorkerPool` whose workers are processes,
    so :func:`repro.serve.http.make_server` and the CLI treat both alike.
    The supervision policy is module constants (:data:`MAX_INFLIGHT`,
    :data:`MAX_REDISPATCH` here, the heartbeat and respawn constants in
    :mod:`repro.serve.supervisor`).

    Args:
        plan_factory: Builds the :class:`InferencePlan` (compiled once,
            in the parent, before forking).
        workers: Worker process count.
        max_batch / max_wait_ms / queue_size / metrics: As for
            :class:`~repro.serve.pool.WorkerPool` (including 503
            shedding).
        trace_dir: Where distributed-trace artifacts (flight-recorder
            black boxes) are written; only used when the process tracer
            is enabled at :meth:`start` time (``repro serve --trace``).
    """

    def __init__(
        self,
        plan_factory: Callable[[], InferencePlan],
        workers: int = 2,
        max_batch: int = 8,
        max_wait_ms: float = 2.0,
        queue_size: int = 64,
        metrics: ServeMetrics | None = None,
        trace_dir: str | None = None,
    ):
        super().__init__(plan_factory, workers, max_batch, max_wait_ms,
                         queue_size, metrics)
        self._wm = worker_metric_families()
        self._plan = self._compile()  # compiled once; workers inherit it
        self.store = SharedLutStore(prefix=f"repro-lut-{os.getpid()}")
        self.shm_info = self.store.publish_plan(self._plan)
        self.supervisor = Supervisor(
            self._worker_entry, workers, on_event=self._on_supervisor_event
        )
        self.trace_dir = trace_dir
        self.tracectl = None  # ShardTraceController when tracing is on
        # One send lock per worker slot: the dispatcher (batches) and the
        # collector (clock-sync pings on "ready") both write to a worker's
        # pipe, and interleaved Connection.send bytes would corrupt the
        # stream.  Slots survive respawns, so index-keyed is enough.
        self._send_locks = [threading.Lock() for _ in range(workers)]
        self._lock = threading.Lock()
        self._slots = threading.Condition(self._lock)
        # worker index -> {batch_id: _DispatchedBatch}
        self._outstanding: dict[int, dict[int, _DispatchedBatch]] = {}
        self._next_id = 0
        self._dispatcher: threading.Thread | None = None
        self._collector: threading.Thread | None = None

    # ------------------------------------------------------------------
    def _worker_entry(self, conn, index, hb_slab) -> None:
        # Runs in the forked child: the trace block (a view into the
        # pre-fork shm slab) comes along for free, respawns included.
        block = (
            self.tracectl.block(index) if self.tracectl is not None else None
        )
        plan_worker(conn, index, hb_slab, self._plan, block)

    def _on_supervisor_event(self, event: dict) -> None:
        if event["event"] == "worker_spawned":
            self._wm["up"].set(1, worker=event["worker"])
            if event.get("attempt", 0) > 0:
                self._wm["respawns"].inc(worker=event["worker"])
                self.metrics.inc("worker_respawns_total")
        elif event["event"] in ("worker_down", "worker_respawn_scheduled"):
            self._wm["up"].set(0, worker=event["worker"])
            if event["event"] == "worker_down":
                self.metrics.inc("workers_lost_total")

    @property
    def alive_workers(self) -> int:
        return len(self.supervisor.live_handles())

    # ------------------------------------------------------------------
    def _start_workers(self) -> None:
        """Fork the workers and start the dispatcher and the collector."""
        if _TRACE.enabled:
            # Create the trace slab BEFORE forking so workers inherit
            # the mapping (exactly like the heartbeat slab).
            from repro.obs.dist import ShardTraceController

            self.tracectl = ShardTraceController(
                self.supervisor.num_workers, trace_dir=self.trace_dir
            )
            self.metrics.register_gauge(
                "trace_transport_dropped",
                lambda: (self.tracectl.dropped_total
                         if self.tracectl is not None else 0),
            )
        self.supervisor.start()
        if self.tracectl is not None:
            self.tracectl.start()
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-shard-collector", daemon=True
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-shard-dispatcher",
            daemon=True,
        )
        self._collector.start()
        self._dispatcher.start()

    def submit(self, x: np.ndarray) -> PendingRequest:
        """As :meth:`WorkerPool.submit`; refuses once every slot is down."""
        if self.supervisor.all_down():
            raise ServeError("all shard workers are permanently down")
        return super().submit(x)

    # ------------------------------------------------------------------
    # Dispatcher: batcher -> least-loaded worker.
    def _pick_worker(self) -> WorkerHandle | None:
        """Least-loaded live worker with a free in-flight slot."""
        best, best_load = None, None
        for handle in self.supervisor.live_handles():
            load = len(self._outstanding.get(handle.index, ()))
            if load >= MAX_INFLIGHT:
                continue
            if best_load is None or load < best_load:
                best, best_load = handle, load
        return best

    def _dispatch_loop(self) -> None:
        while True:
            batch = self.batcher.next_batch(timeout=0.05)
            if batch is None:
                if self._stopping or self.batcher.finished:
                    return
                continue
            rec = _DispatchedBatch(self._next_id, batch)
            self._next_id += 1
            self._dispatch(rec)

    def _dispatch(self, rec: _DispatchedBatch) -> None:
        while True:
            with self._slots:
                handle = self._pick_worker()
                if handle is None:
                    if self._stopping or self.supervisor.all_down():
                        self._fail_unassigned(rec)
                        return
                    # Every worker saturated (or mid-respawn): wait for
                    # the collector to free an in-flight slot.
                    self._slots.wait(timeout=0.1)
                    continue
                self._outstanding.setdefault(handle.index, {})[rec.id] = rec
                self._wm["inflight"].set(
                    len(self._outstanding[handle.index]), worker=handle.index
                )
            if self.tracectl is not None:
                msg = ("batch", rec.id, rec.payload,
                       [p.trace_id for p in rec.requests])
            else:
                msg = ("batch", rec.id, rec.payload)
            rec.sent_at = time.perf_counter()
            try:
                with self._send_locks[handle.index]:
                    handle.conn.send(msg)
            except (OSError, ValueError):
                # Worker died between pick and send.  If the death
                # handler already swept this batch out of outstanding it
                # owns the re-dispatch; otherwise take it back and retry
                # with another worker ourselves.
                if self._pop_outstanding(handle.index, rec.id) is not None:
                    continue
            return

    def _fail_unassigned(self, rec: _DispatchedBatch) -> None:
        """A batch that never reached a worker (stop/all-down): fail it."""
        self._fail(rec.requests, ServeError(
            "no shard workers available"
            if self.supervisor.all_down()
            else "server shutting down"
        ))
        self.batcher.task_done()

    # ------------------------------------------------------------------
    # Collector: worker results + crash/hang detection + respawn.
    def _collect_loop(self) -> None:
        while True:
            # All registered handles, dead or alive: a worker that died
            # between iterations (its is_alive() already flipped) must
            # still be waited on -- its sentinel is instantly ready --
            # or the death is never handled and its in-flight batches
            # orphan silently.  live_handles() here would drop exactly
            # that handle from the waitables.
            handles = self.supervisor.handles()
            by_conn = {h.conn: h for h in handles}
            by_sentinel = {h.sentinel: h for h in handles}
            waitables = list(by_conn) + list(by_sentinel)
            timeout = 0.1
            due = self.supervisor.next_respawn_due()
            if due is not None:
                timeout = min(timeout, max(due, 0.01))
            ready = connection.wait(waitables, timeout) if waitables else []
            if not waitables:
                time.sleep(0.02)
            for obj in ready:
                handle = by_conn.get(obj)
                if handle is not None:
                    if not self._drain_conn(handle, limit=64):
                        self._handle_death(handle)
            # Sentinel-only deaths (conn had no final message).  A ready
            # sentinel means the process has exited, though waitpid may
            # not see it yet: is_alive() can still read True here.
            for obj in ready:
                handle = by_sentinel.get(obj)
                if handle is not None:
                    self._drain_conn(handle, limit=None)
                    self._handle_death(handle)
            for handle in self.supervisor.stale_handles():
                self.metrics.inc("worker_hangs_total")
                self.supervisor.kill(handle)  # death flows via sentinel
            self.supervisor.poll_respawns()
            if self._stopping and not self._any_outstanding():
                return

    def _any_outstanding(self) -> bool:
        with self._lock:
            return any(self._outstanding.values())

    def _drain_conn(self, handle: WorkerHandle, limit: int | None) -> bool:
        """Pump complete messages off a worker's pipe.

        Returns ``False`` when the pipe hit EOF (worker died); complete
        messages buffered before death are still consumed first, so
        results computed by a dying worker are never re-run.
        """
        drained = 0
        while limit is None or drained < limit:
            try:
                if not handle.conn.poll(0):
                    return True
                msg = handle.conn.recv()
            except (EOFError, OSError):
                return False
            drained += 1
            self._handle_message(handle, msg)
        return True

    def _handle_message(self, handle: WorkerHandle, msg: tuple) -> None:
        kind = msg[0]
        if kind == "ready":
            if self.tracectl is not None:
                # Calibrate the fresh worker's perf_counter offset
                # (NTP-style single exchange; the ack comes back through
                # this collector as "sync_ack").
                try:
                    with self._send_locks[handle.index]:
                        handle.conn.send(("sync", time.perf_counter()))
                except (OSError, ValueError):
                    pass
            return
        if kind == "sync_ack":
            if self.tracectl is not None:
                self.tracectl.note_sync(
                    handle.index, msg[1], msg[2], time.perf_counter()
                )
            return
        rec = self._pop_outstanding(handle.index, msg[1])
        if rec is None:
            return  # batch was re-dispatched elsewhere after a false death
        if kind == "result":
            _, _, ys, exec_ms = msg
            done = self._deliver(rec.requests, ys, exec_ms)
            if _TRACE.enabled:
                for pending in rec.requests:
                    self._record_request_span(
                        pending, rec, handle, exec_ms, done
                    )
            self._wm["batches"].inc(worker=handle.index)
            self._wm["batch_ms"].observe(exec_ms, worker=handle.index)
        else:  # ("error", id, message)
            self._fail(rec.requests,
                       ServeError(f"worker {handle.index} failed: {msg[2]}"))
        self.batcher.task_done()

    def _record_request_span(self, pending: PendingRequest,
                             rec: _DispatchedBatch, handle: WorkerHandle,
                             exec_ms: float, done: float) -> None:
        """One ``serve.request`` span per answered request.

        The args carry the stage split ``repro trace`` reports on:
        queue (submit->dispatch), assembly (dispatch->pipe send), exec
        (worker-measured plan run), and transit (everything else --
        pipe transfer both ways + collector pickup), which partition
        ``total_ms`` by construction.
        """
        total_ms = (done - pending.enqueued_at) * 1000.0
        dispatched = pending.dispatched_at or pending.enqueued_at
        sent = rec.sent_at or dispatched
        queue_ms = (dispatched - pending.enqueued_at) * 1000.0
        assembly_ms = max((sent - dispatched) * 1000.0, 0.0)
        transit_ms = max(total_ms - queue_ms - assembly_ms - exec_ms, 0.0)
        _TRACE.record_span(
            "serve.request", pending.enqueued_at, total_ms / 1000.0,
            cat="serve",
            args={
                "trace_id": pending.trace_id,
                "batch_id": rec.id,
                "worker": handle.index,
                "queue_ms": queue_ms,
                "assembly_ms": assembly_ms,
                "exec_ms": exec_ms,
                "transit_ms": transit_ms,
                "total_ms": total_ms,
            },
        )

    def _pop_outstanding(self, index: int, batch_id: int):
        with self._slots:
            rec = self._outstanding.get(index, {}).pop(batch_id, None)
            if rec is not None:
                self._wm["inflight"].set(
                    len(self._outstanding.get(index, ())), worker=index
                )
                self._slots.notify_all()
            return rec

    def _handle_death(self, handle: WorkerHandle) -> None:
        """Crashed worker: salvage outstanding batches, ask for respawn."""
        if self.tracectl is not None:
            # Salvage the dead worker's trace state from shm before the
            # slot respawns: transported spans first, then the flight
            # ring as a black-box dump (deduped per (index, pid) -- the
            # pipe EOF and the sentinel both land here).
            self.tracectl.drain_once()
            path = self.tracectl.dump_black_box(handle.index, pid=handle.pid)
            if path is not None:
                self.metrics.inc("flight_recorder_dumps_total")
        self.supervisor.notice_death(handle)
        with self._slots:
            orphans = list(
                self._outstanding.pop(handle.index, {}).values()
            )
            self._wm["inflight"].set(0, worker=handle.index)
            self._slots.notify_all()
        give_up = self._stopping or self.supervisor.all_down()
        for rec in orphans:
            # The count rides on the requests: a re-dispatched request
            # is re-coalesced into a new batch, so a per-batch count
            # would restart at zero on every requeue.
            retry, failed = [], []
            for pending in rec.requests:
                pending.deaths += 1
                if not give_up and pending.deaths <= MAX_REDISPATCH:
                    retry.append(pending)
                else:
                    failed.append(pending)
            if failed:
                self._fail(failed, ServeError(
                    f"worker died with batch in flight (after "
                    f"{max(p.deaths for p in failed)} attempt(s))"
                ))
            if retry:
                # Back to the head of the global queue: the dispatcher
                # re-coalesces and re-sends to a live worker.  Safe to
                # re-run -- plans are pure functions of the input.
                self.batcher.requeue(retry)
                self.metrics.inc("redispatched_batches_total")
            else:
                self.batcher.task_done()

    # ------------------------------------------------------------------
    def _stop_workers(self, timeout: float) -> None:
        """Stop the router threads and workers; unlink every segment."""
        with self._slots:
            self._slots.notify_all()
        for thread in (self._dispatcher, self._collector):
            if thread is not None:
                thread.join(timeout)
        # Fail anything still outstanding (collector exited on timeout).
        with self._slots:
            leftovers = [
                rec for m in self._outstanding.values() for rec in m.values()
            ]
            self._outstanding.clear()
        for rec in leftovers:
            self._fail(rec.requests, ServeError("server shutting down"))
            self.batcher.task_done()
        self.supervisor.stop()
        if self.tracectl is not None:
            # Final trace drain + slab unlink (workers are stopped by
            # now).  The controller object stays around (closed): its
            # drop count is cached so the trace_transport_dropped gauge
            # and post-run exports keep reporting the final number.
            self.tracectl.stop()
            self.tracectl.close()
        self.store.close()

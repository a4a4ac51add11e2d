"""Worker-process supervision for the sharded serving subsystem.

:class:`Supervisor` owns the N forked :mod:`repro.serve.shard` worker
processes and nothing else -- spawning, liveness, and respawn policy --
so the router can treat the worker set as a self-healing pool:

- **Spawn.**  Workers are started with the ``fork`` start method: they
  inherit the parent's compiled plan (closures and all -- nothing is
  pickled) plus the already-mapped shared-memory LUT segments, so a
  worker is serving-ready the moment it comes up.
- **Heartbeats.**  Each worker writes ``time.monotonic()`` into its slot
  of a small shared-memory float64 slab on a fixed interval (a
  :class:`repro.retrain.lifecycle.Heartbeat` thread -- the same primitive
  the sweep runner uses).  ``time.monotonic`` is comparable across
  processes on Linux (CLOCK_MONOTONIC is system-wide), so the parent
  detects a *hung* worker (alive but not beating) as well as a dead one.
- **Crash detection.**  The router waits on process sentinels; the
  supervisor classifies deaths and schedules respawns with the sweep
  runner's capped exponential backoff
  (:func:`repro.retrain.lifecycle.capped_backoff`).  Respawns are
  *scheduled*, not slept in line, so one crashing worker never stalls
  result collection for the others; a worker that keeps dying young
  exhausts :data:`MAX_RESPAWNS` and is marked permanently down.
"""

from __future__ import annotations

import os
import time
from multiprocessing import get_context
from typing import Callable

import numpy as np

from repro.errors import ServeError
from repro.retrain.lifecycle import capped_backoff
from repro.serve.shm import MutableSlab

__all__ = ["Supervisor", "WorkerHandle"]

#: Seconds between a worker's heartbeat writes.
HEARTBEAT_S = 0.25
#: Heartbeat age after which a live worker counts as hung and is SIGKILLed.
STALE_AFTER_S = 10.0 * HEARTBEAT_S
#: The capped-exponential respawn delay: ``BACKOFF_BASE * 2**(attempt-1)``
#: seconds, at most ``BACKOFF_CAP``.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: Consecutive young-death respawns per slot before it is permanently down.
MAX_RESPAWNS = 5
#: A worker alive longer than this at death is "old": its respawn attempt
#: counter resets, so long-lived workers always restart promptly and only
#: crash-looping ones walk up the backoff schedule.
ATTEMPT_RESET_AFTER_S = 30.0


class WorkerHandle:
    """One live (or just-dead) worker process, as the supervisor sees it."""

    __slots__ = ("index", "process", "conn", "started_at", "attempt",
                 "killed")

    def __init__(self, index: int, process, conn, attempt: int):
        self.index = index
        self.process = process
        self.conn = conn  # parent end of the duplex pipe
        self.started_at = time.monotonic()
        self.attempt = attempt  # respawn generation (0 = original)
        self.killed = False  # SIGKILLed as hung; its death is on the way

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def sentinel(self):
        return self.process.sentinel

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def __repr__(self) -> str:
        state = "alive" if self.is_alive() else "dead"
        return f"WorkerHandle(#{self.index} pid={self.pid} {state})"


class Supervisor:
    """Spawns, watches, and respawns the sharded serving workers.

    The policy is the module constants (:data:`HEARTBEAT_S`,
    :data:`STALE_AFTER_S`, :data:`BACKOFF_BASE`, :data:`BACKOFF_CAP`,
    :data:`MAX_RESPAWNS`).

    Args:
        worker_fn: Child entry point ``worker_fn(conn, index, slab)``;
            runs in the forked process.  ``slab`` is the writable
            heartbeat array; the worker writes ``slab[index]`` every
            :data:`HEARTBEAT_S`.
        num_workers: Worker slot count (fixed; slots are respawned in
            place).
        on_event: Optional callback receiving lifecycle dicts
            (``{"event": "worker_spawned" | "worker_respawn_scheduled" |
            "worker_down", ...}``); the shard feeds its metrics from it.
    """

    def __init__(
        self,
        worker_fn: Callable,
        num_workers: int,
        on_event: Callable[[dict], None] | None = None,
    ):
        if num_workers < 1:
            raise ServeError(f"num_workers must be >= 1, got {num_workers}")
        try:
            self._ctx = get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise ServeError(
                "sharded serving requires the fork start method "
                "(workers inherit the compiled plan and shm mappings)"
            ) from exc
        self.worker_fn = worker_fn
        self.num_workers = num_workers
        self.on_event = on_event
        self._owner_pid = os.getpid()
        self._handles: list[WorkerHandle | None] = [None] * num_workers
        self._down: set[int] = set()  # permanently-down slots
        self._pending: dict[int, tuple[float, int]] = {}  # idx -> (due, att)
        self._respawns_total = 0
        self._stopping = False
        # Heartbeat slab: one float64 monotonic timestamp per slot,
        # inherited writable over fork.  Unrelated to the read-only
        # SharedLutStore segments (those carry immutable tables).
        self._hb_shm = MutableSlab(
            f"repro-hb-{os.getpid()}", size=max(num_workers * 8, 8)
        )
        self.hb_slab = self._hb_shm.as_array(np.float64, (num_workers,))
        self.hb_slab[:] = 0.0

    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        if self.on_event is not None:
            self.on_event({"event": event, **fields})

    @property
    def respawns_total(self) -> int:
        return self._respawns_total

    @property
    def heartbeat_segment(self) -> str:
        """Name of the heartbeat slab's shared-memory segment."""
        return self._hb_shm.name

    def handles(self) -> list[WorkerHandle]:
        """Current handles, dead or alive (permanently-down slots absent)."""
        return [h for h in self._handles if h is not None]

    def handle(self, index: int) -> WorkerHandle | None:
        """The current handle of slot ``index`` (None while respawning)."""
        return self._handles[index]

    def live_handles(self) -> list[WorkerHandle]:
        return [h for h in self.handles() if h.is_alive()]

    def all_down(self) -> bool:
        """Every slot is permanently down (no worker will ever come back)."""
        return len(self._down) == self.num_workers

    # ------------------------------------------------------------------
    def start(self) -> "Supervisor":
        for index in range(self.num_workers):
            self._spawn(index, attempt=0)
        return self

    def _spawn(self, index: int, attempt: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # A fresh heartbeat "now" so the new worker isn't stale at birth.
        self.hb_slab[index] = time.monotonic()
        proc = self._ctx.Process(
            target=self.worker_fn,
            args=(child_conn, index, self.hb_slab),
            name=f"repro-shard-worker-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # child's end lives in the child only
        handle = WorkerHandle(index, proc, parent_conn, attempt)
        self._handles[index] = handle
        self._emit(
            "worker_spawned", worker=index, pid=proc.pid, attempt=attempt
        )
        return handle

    # ------------------------------------------------------------------
    def notice_death(self, handle: WorkerHandle) -> bool:
        """Record a worker death; schedule a respawn when policy allows.

        Returns ``True`` when a respawn was scheduled, ``False`` when the
        slot is now permanently down (or the supervisor is stopping).
        Idempotent per handle: a second notice for the same generation is
        a no-op (the sentinel and an EOF on the pipe can both fire).
        """
        index = handle.index
        current = self._handles[index]
        if current is not handle or self._stopping or index in self._down:
            return False
        self._handles[index] = None
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=0)
        age = time.monotonic() - handle.started_at
        attempt = 1 if age >= ATTEMPT_RESET_AFTER_S else handle.attempt + 1
        if attempt > MAX_RESPAWNS:
            self._down.add(index)
            self._emit(
                "worker_down", worker=index, pid=handle.pid,
                attempts=handle.attempt,
            )
            return False
        delay = capped_backoff(attempt, BACKOFF_BASE, BACKOFF_CAP)
        self._pending[index] = (time.monotonic() + delay, attempt)
        self._respawns_total += 1
        self._emit(
            "worker_respawn_scheduled", worker=index, pid=handle.pid,
            attempt=attempt, delay_s=delay, age_s=age,
        )
        return True

    def poll_respawns(self) -> list[WorkerHandle]:
        """Spawn every scheduled respawn whose backoff delay has elapsed."""
        if self._stopping or not self._pending:
            return []
        now = time.monotonic()
        spawned = []
        for index, (due, attempt) in list(self._pending.items()):
            if now >= due:
                del self._pending[index]
                spawned.append(self._spawn(index, attempt))
        return spawned

    def next_respawn_due(self) -> float | None:
        """Seconds until the soonest scheduled respawn (None = none pending)."""
        if not self._pending:
            return None
        return max(min(due for due, _ in self._pending.values())
                   - time.monotonic(), 0.0)

    def stale_handles(self) -> list[WorkerHandle]:
        """Live, not yet killed workers whose heartbeat is older than
        :data:`STALE_AFTER_S`."""
        now = time.monotonic()
        return [
            h for h in self.live_handles()
            if not h.killed
            and now - float(self.hb_slab[h.index]) > STALE_AFTER_S
        ]

    def kill(self, handle: WorkerHandle) -> None:
        """SIGKILL a worker (hang handling); death flows through sentinels."""
        if handle.is_alive():
            handle.killed = True
            handle.process.kill()

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 10.0) -> None:
        """Stop every worker and release the heartbeat slab (idempotent)."""
        if self._stopping:
            return
        self._stopping = True
        self._pending.clear()
        deadline = time.monotonic() + timeout
        for handle in self.handles():
            try:
                handle.conn.send(("stop",))
            except (OSError, ValueError):
                pass  # already dead / pipe gone
        for handle in self.handles():
            handle.process.join(max(deadline - time.monotonic(), 0.1))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._handles = [None] * self.num_workers
        self.hb_slab = None  # release the exported buffer before close()
        self._hb_shm.close()  # owner-gated unlink inside MutableSlab

"""Tests for sharded multi-process serving.

Covers the shared-memory LUT store (publish/attach/detach lifecycle,
ownership, plan publication and restore-on-close), the supervisor's
backoff policy, the :class:`~repro.serve.shard.ShardServer` router
(bit-identity vs the single-process integer plan, SIGKILL respawn with
zero failed responses, the poison-request guard, hang detection,
``/dev/shm`` cleanup), the scheduler's requeue
semantics, and the HTTP-level signal shutdown handlers.
"""

import json
import os
import signal
import threading
import time
import urllib.request
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.data import DataLoader, SyntheticImageDataset
from repro.errors import ServeError, ServerBusyError
from repro.models import LeNet
from repro.multipliers import get_multiplier
from repro.retrain.convert import approximate_model, calibrate, freeze
from repro.retrain.lifecycle import capped_backoff
from repro.serve import (
    MicroBatcher,
    PlanOp,
    ServeMetrics,
    ShardServer,
    SharedArraySpec,
    SharedLutStore,
    WorkerPool,
    compile_plan,
    install_shutdown_handlers,
    make_server,
)
from repro.serve.shard import MAX_REDISPATCH
from repro.serve.shm import segment_exists
from repro.serve.supervisor import STALE_AFTER_S


@pytest.fixture(scope="module")
def frozen_model():
    """Calibrated + frozen approximate LeNet in eval mode."""
    train = SyntheticImageDataset(64, 4, 12, seed=5, split="train")
    model = approximate_model(
        LeNet(num_classes=4, image_size=12, seed=5),
        get_multiplier("mul6u_rm4"),
        gradient_method="difference", hws=2, include_linear=True,
    )
    calibrate(model, DataLoader(train, batch_size=32), batches=1)
    freeze(model)
    model.eval()
    return model


def _int_plan(model):
    return compile_plan(model, arithmetic="int")


def _samples(n, seed=3):
    return np.random.default_rng(seed).standard_normal((n, 3, 12, 12))


# ---------------------------------------------------------------------------
# SharedLutStore lifecycle
# ---------------------------------------------------------------------------

def test_shm_publish_attach_detach_lifecycle():
    store = SharedLutStore(prefix=f"repro-test-{os.getpid()}")
    arr = np.arange(12, dtype=np.int64).reshape(3, 4)
    view = store.publish("t/a", arr)
    assert not view.flags.writeable
    assert np.array_equal(view, arr)
    [name] = store.owned_segments()
    assert segment_exists(name)

    # Once per host: re-publishing the key shares the existing mapping,
    # and a different payload must never silently alias the name.
    assert store.publish("t/a", arr) is view
    with pytest.raises(ServeError):
        store.publish("t/a", arr + 1)

    spec = store.spec("t/a")
    assert spec.segment == name
    assert spec.nbytes() == arr.nbytes
    assert store.attach(spec) is view  # refcounted same-process mapping

    store.detach("t/a")
    store.detach("t/a")
    assert segment_exists(name)  # one reference still holds the segment
    store.detach("t/a")
    assert not segment_exists(name)  # last ref: unmapped AND unlinked
    assert store.owned_segments() == []
    store.close()


def test_shm_attach_missing_segment_raises():
    store = SharedLutStore()
    spec = SharedArraySpec(
        key="x", segment="repro-test-missing-xyz", shape=(2,), dtype="int64"
    )
    with pytest.raises(ServeError):
        store.attach(spec)
    store.close()
    with pytest.raises(ServeError):
        store.publish("x", np.zeros(2))  # closed store rejects publishes


def test_shm_non_owner_cannot_publish_or_unlink():
    store = SharedLutStore(prefix=f"repro-test-{os.getpid()}")
    store.publish("t/a", np.ones(4))
    [name] = store.owned_segments()
    store._owner_pid += 1  # simulate the store as seen by a forked child
    with pytest.raises(ServeError):
        store.publish("t/b", np.ones(4))
    store.close()  # non-owner close unmaps but must NOT unlink
    assert segment_exists(name)
    # Clean up as an external owner would.
    leftover = shared_memory.SharedMemory(name=name)
    leftover.close()
    leftover.unlink()
    assert not segment_exists(name)


def test_publish_plan_bit_identical_and_engine_restored(frozen_model):
    x = _samples(4)
    plan = _int_plan(frozen_model)
    ref = plan.run(x)

    store = SharedLutStore(prefix=f"repro-test-{os.getpid()}")
    info = store.publish_plan(plan)
    assert info["segments"] and info["bytes"] > 0
    assert all(segment_exists(s) for s in info["segments"])
    assert np.array_equal(plan.run(x), ref)  # shared views are bit-exact

    store.close()
    assert all(not segment_exists(s) for s in info["segments"])
    # Regression: close() must re-point the (process-cached) engines and
    # the rebound requant ops at private memory -- both the published
    # plan and a fresh compile reusing the engine cache stay usable.
    assert np.array_equal(plan.run(x), ref)
    assert np.array_equal(_int_plan(frozen_model).run(x), ref)


def test_publish_plan_reaches_residual_block_layers(block_models, block_batch):
    """Layers inside residual blocks are plan ops like any other: their
    engines and requant constants go to shared memory, and a sharded
    plan serves them bit-identically."""
    from repro.nn.requant import RequantParams
    from repro.serve.plan import requant_params_of

    model = block_models["resnet18", "mul8u_2NDH"]

    def factory():
        return compile_plan(model, arithmetic="int", private_engines=True)

    plan = factory()
    ref = plan.run(block_batch)
    engines = plan.engines()
    assert len(engines) == plan.lutgemm_ops == 20
    n_requant = sum(
        isinstance(requant_params_of(op), RequantParams) for op in plan.ops
    )
    assert n_requant == plan.fused_ops > 0

    store = SharedLutStore(prefix=f"repro-test-{os.getpid()}")
    try:
        info = store.publish_plan(plan)
        # Every engine adopted its shared (read-only) tables.
        assert all(
            not table.flags.writeable
            for engine in engines
            for table in engine.shared_tables().values()
        )
        requant_keys = [k for k in info["keys"] if k.startswith("requant/")]
        assert len(requant_keys) == n_requant
        assert np.array_equal(plan.run(block_batch), ref)
    finally:
        store.close()

    # One request per batch: the float Linear head's BLAS rounding may
    # depend on the batch size, so the reference runs sample by sample.
    per_sample = [plan.run(s[None])[0] for s in block_batch]
    with ShardServer(factory, workers=2, max_batch=1, max_wait_ms=2.0) as server:
        outs = [f.result(timeout=60.0) for f in map(server.submit, block_batch)]
    assert all(np.array_equal(o, r) for o, r in zip(outs, per_sample))


# ---------------------------------------------------------------------------
# Supervisor policy
# ---------------------------------------------------------------------------

def test_capped_backoff_monotone_and_capped():
    vals = [capped_backoff(a, base=0.05, cap=2.0) for a in range(1, 12)]
    assert vals[0] == 0.05
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 2.0
    assert capped_backoff(0, base=0.05, cap=2.0) == 0.05


# ---------------------------------------------------------------------------
# ShardServer router
# ---------------------------------------------------------------------------

def test_shard_server_bit_identical(frozen_model):
    x = _samples(10)
    ref = _int_plan(frozen_model).run(x)
    with ShardServer(
        lambda: _int_plan(frozen_model),
        workers=2, max_batch=4, max_wait_ms=2.0,
    ) as server:
        assert server.alive_workers == 2
        futures = [server.submit(s) for s in x]
        outs = [f.result(timeout=60.0) for f in futures]
    assert all(np.array_equal(o, r) for o, r in zip(outs, ref))


def test_shard_server_separable_plan_matches_gather(monkeypatch):
    from repro.core.lutgemm import LutGemm

    train = SyntheticImageDataset(64, 4, 12, seed=5, split="train")
    model = approximate_model(
        LeNet(num_classes=4, image_size=12, seed=5),
        get_multiplier("mul8u_1DMU"),  # rank-1 LUT: matmul lowering
        gradient_method="none", include_linear=True,
    )
    calibrate(model, DataLoader(train, batch_size=32), batches=1)
    freeze(model)
    model.eval()
    x = _samples(10)
    with monkeypatch.context() as patch:
        patch.setattr(LutGemm, "separable_for", lambda self, wq: False)
        ref = _int_plan(model).run(x)  # every op gathers
    assert _int_plan(model).separable_ops > 0
    with ShardServer(
        lambda: _int_plan(model), workers=2, max_batch=4, max_wait_ms=2.0,
    ) as server:
        outs = [f.result(timeout=60.0) for f in map(server.submit, x)]
    assert all(np.array_equal(o, r) for o, r in zip(outs, ref))


def test_shard_sigkill_respawn_and_shm_cleanup(frozen_model):
    x = _samples(16, seed=9)
    ref = _int_plan(frozen_model).run(x)
    server = ShardServer(
        lambda: _int_plan(frozen_model),
        workers=2, max_batch=4, max_wait_ms=2.0, queue_size=32,
    ).start()
    segs = list(server.store.owned_segments())
    segs.append(server.supervisor.heartbeat_segment)
    assert all(segment_exists(s) for s in segs)
    try:
        victim = server.supervisor.live_handles()[0]
        futures = [server.submit(s) for s in x]
        os.kill(victim.pid, signal.SIGKILL)
        outs = [f.result(timeout=60.0) for f in futures]
        # Zero failed responses: orphaned batches are re-dispatched.
        assert all(np.array_equal(o, r) for o, r in zip(outs, ref))
        deadline = 15.0
        t0 = time.monotonic()
        while (server.alive_workers < 2
               and time.monotonic() - t0 < deadline):
            time.sleep(0.05)
        assert server.alive_workers == 2  # SIGKILLed worker respawned
        assert server.metrics.counter("worker_respawns_total") >= 1
    finally:
        server.shutdown(drain=True)
    # No leaked /dev/shm entries: LUT segments and the heartbeat slab.
    assert server.store.owned_segments() == []
    assert all(not segment_exists(s) for s in segs)


POISON = 7.0


def _exit_on_poison(x):
    if np.any(x[:, 0, 0, 0] == POISON):
        os._exit(1)  # the worker process dies holding the batch
    return x


def test_shard_poison_request_fails_without_downing_the_shard(frozen_model):
    """A request that kills every worker it reaches fails after
    ``MAX_REDISPATCH + 1`` deaths; the slots stay up for healthy traffic.
    """
    def factory():
        plan = _int_plan(frozen_model)
        plan.ops.insert(0, PlanOp("poison", "float", _exit_on_poison))
        return plan

    healthy = _samples(1, seed=23)[0]
    ref = _int_plan(frozen_model).run(healthy[None])[0]
    with ShardServer(factory, workers=2, max_batch=1) as server:
        with pytest.raises(ServeError, match="worker died"):
            server.infer(np.full((3, 12, 12), POISON), timeout=60.0)
        assert server.supervisor.respawns_total <= MAX_REDISPATCH + 1
        assert server.metrics.counter("workers_lost_total") == 0
        assert np.array_equal(server.infer(healthy, timeout=60.0), ref)


def test_shard_kills_and_respawns_a_hung_worker(frozen_model):
    with ShardServer(lambda: _int_plan(frozen_model), workers=2) as server:
        victim = server.supervisor.live_handles()[0]
        os.kill(victim.pid, signal.SIGSTOP)  # alive, but its heartbeat stops
        deadline = time.monotonic() + 2 * STALE_AFTER_S
        while (server.metrics.counter("worker_hangs_total") == 0
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert server.metrics.counter("worker_hangs_total") == 1
        # The SIGKILLed victim's slot is respawned.
        deadline = time.monotonic() + 15.0
        while (server.supervisor.handle(victim.index) in (victim, None)
               or server.alive_workers < 2) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert server.alive_workers == 2
        assert server.supervisor.handle(victim.index) is not victim
        assert victim.process.exitcode == -signal.SIGKILL
        assert server.metrics.counter("worker_hangs_total") == 1
        x = _samples(1, seed=29)
        assert np.array_equal(server.infer(x[0], timeout=60.0),
                              _int_plan(frozen_model).run(x)[0])


def test_shard_server_rejects_after_shutdown(frozen_model):
    server = ShardServer(lambda: _int_plan(frozen_model), workers=1).start()
    server.shutdown(drain=True)
    with pytest.raises(ServeError):
        server.submit(_samples(1)[0])


def test_http_healthz_reports_worker_processes(frozen_model):
    x = _samples(2, seed=13)
    ref = _int_plan(frozen_model).run(x)
    metrics = ServeMetrics()
    shard = ShardServer(
        lambda: _int_plan(frozen_model), workers=2, metrics=metrics,
    ).start()
    http = make_server(shard, metrics, port=0)
    port = http.server_address[1]
    thread = threading.Thread(target=http.serve_forever, daemon=True)
    thread.start()
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=10
        ) as resp:
            payload = json.loads(resp.read())
        assert payload["workers"] == 2
        body = json.dumps({"inputs": x.tolist()}).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/predict", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            out = json.loads(resp.read())
        assert np.allclose(np.asarray(out["outputs"]), ref)
    finally:
        http.shutdown()
        thread.join(timeout=10)
        shard.shutdown(drain=True)
        http.server_close()


# ---------------------------------------------------------------------------
# Fused-pipeline seams: zero-row batches, shm rebind + mid-load SIGKILL
# ---------------------------------------------------------------------------

def test_plan_worker_zero_row_batch_returns_empty_result(frozen_model):
    """A zero-row micro-batch must flow through a worker, not crash it.

    HTTP input parsing and ``submit`` stack single samples, so the only
    way a degenerate batch reaches a worker is through the dispatch
    protocol itself -- drive :func:`plan_worker` directly over a pipe.
    """
    from multiprocessing import Pipe

    from repro.serve.shard import plan_worker

    plan = _int_plan(frozen_model)
    assert plan.fused_ops > 0  # the fused kernel path is what's under test
    parent, child = Pipe()
    hb_slab = np.zeros(1)
    worker = threading.Thread(
        target=plan_worker, args=(child, 0, hb_slab, plan), daemon=True
    )
    worker.start()
    try:
        assert parent.recv()[0] == "ready"
        parent.send(("batch", 7, np.empty((0, 3, 12, 12))))
        kind, batch_id, ys, exec_ms = parent.recv()
        assert kind == "result" and batch_id == 7
        assert ys.shape == (0, 4)
        # A normal batch still works on the same worker afterwards.
        x = _samples(3, seed=21)
        parent.send(("batch", 8, x))
        kind, batch_id, ys, _ = parent.recv()
        assert kind == "result" and batch_id == 8
        assert np.array_equal(ys, plan.run(x))
    finally:
        parent.send(("stop",))
        worker.join(timeout=10)
    assert not worker.is_alive()


def test_fused_shm_rebind_sigkill_redispatch_bit_identical(frozen_model):
    """Satellite regression: rebind onto shm-backed constants, kill a
    worker mid-load, and verify redispatched outputs stay bit-identical.

    The fused ops re-resolve their requant constants through the bound
    ``RequantParams`` view at call time, so the shm rebind must be
    visible to the C kernel in every worker -- including the respawned
    one that re-runs the orphaned batches.
    """
    from repro.serve.plan import requant_params_of

    x = _samples(12, seed=17)
    ref = _int_plan(frozen_model).run(x)
    server = ShardServer(
        lambda: _int_plan(frozen_model),
        workers=2, max_batch=4, max_wait_ms=2.0, queue_size=32,
    ).start()
    try:
        # publish_plan rebound the fused ops onto shared read-only views.
        fused = [op for op in server._plan.ops if op.kind == "fused_int"]
        assert fused, "sharded plan should be fused by default"
        for op in fused:
            rp = requant_params_of(op)
            assert rp is not None and not rp.m0.flags.writeable
        # Kill a worker the moment work lands on it (mid-load), before
        # any result comes back: its batches must be re-dispatched.
        victim = server.supervisor.live_handles()[0]
        futures = [server.submit(s) for s in x]
        os.kill(victim.pid, signal.SIGKILL)
        outs = [f.result(timeout=60.0) for f in futures]
        assert all(np.array_equal(o, r) for o, r in zip(outs, ref))
    finally:
        server.shutdown(drain=True)
    assert server.store.owned_segments() == []


# ---------------------------------------------------------------------------
# Scheduler requeue semantics
# ---------------------------------------------------------------------------

def test_microbatcher_requeue_returns_batch_to_head():
    batcher = MicroBatcher(max_batch=2, max_wait_ms=0.0, capacity=2)
    f1 = batcher.submit(np.zeros(1))
    f2 = batcher.submit(np.ones(1))
    with pytest.raises(ServerBusyError):
        batcher.submit(np.zeros(1))  # bounded queue full

    batch = batcher.next_batch(timeout=1.0)
    assert batch[0] is f1 and batch[1] is f2
    f3 = batcher.submit(np.full((1,), 2.0))  # pop freed capacity

    # Requeue goes to the HEAD (ahead of f3) and bypasses capacity.
    batcher.requeue(batch)
    assert batcher.depth == 3
    redo = batcher.next_batch(timeout=1.0)
    assert redo[0] is f1 and redo[1] is f2  # original order preserved
    batcher.task_done()
    rest = batcher.next_batch(timeout=1.0)
    assert rest[0] is f3
    batcher.task_done()

    batcher.close()
    assert batcher.drain(timeout=1.0)  # requeue kept inflight balanced


# ---------------------------------------------------------------------------
# Signal-driven shutdown
# ---------------------------------------------------------------------------

class _StubPlan:
    def run(self, xs):
        return np.zeros((len(xs), 2))


def test_install_shutdown_handlers_sigterm_stops_serve_loop():
    metrics = ServeMetrics()
    pool = WorkerPool(lambda: _StubPlan(), workers=1, metrics=metrics).start()
    server = make_server(pool, metrics, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    previous = install_shutdown_handlers(server)
    try:
        assert set(previous) == {signal.SIGTERM, signal.SIGINT}
        os.kill(os.getpid(), signal.SIGTERM)
        thread.join(timeout=10.0)
        # serve_forever returned: the caller's drain + close path runs
        # exactly as it does for Ctrl-C.
        assert not thread.is_alive()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        pool.shutdown(drain=False)
        server.server_close()

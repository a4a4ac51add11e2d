"""One benchmark workload in one fresh process: set up, warm up, measure, check.

Usage (``run.py`` prepares the environment and calls this)::

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--tiny]
    python3 perfbench/workload.py --prime

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics`` (plain values; ``run.py`` adds the
units from ``BENCHMARK.json``), ``fingerprint``, ``setup_phases`` and, in
traced runs, ``layer_table`` (the per-(M, K, C) rows).

``--prime`` only loads the program and its C kernel, so the JIT-compiled
kernel exists on disk before a timed process starts.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import ctypes
import gc
import glob
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core import execcore, lutkernel
from repro.core.lutgemm import LutGemm, clear_engine_cache
from repro.core.gradient import gradient_luts
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.dataset import ArrayDataset
from repro.models import LeNet, resnet18, vgg19
from repro.multipliers import get_multiplier
from repro.autograd.tensor import Tensor
from repro.nn.losses import cross_entropy
from repro.retrain.convert import approximate_model, calibrate, freeze
from repro.retrain.trainer import TrainConfig, Trainer
from repro.serve import WorkerPool, compile_plan

import layers

#: The CPUs this process may run on, before ``main`` narrows them.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
IMAGE_SIZE = 32
N_CLASSES = 10
#: Input pool per run; operations cycle through it.
RETRAIN_BATCHES = 8
SERVE_INPUTS = 32
CALIB_BATCHES = 3
#: Timed setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Coalesced responses are compared with the single-sample plan output.
#: Float-head reductions depend on the batch shape, so they agree only
#: to rounding (measured <= 9e-15 on ResNet-18 logits); batch-1 responses
#: are bit-exact.
SERVE_TOL = 1e-9
#: Exact multiplier for the overhead-vs-native baseline (float matmul
#: forward, STE matmul backward).
EXACT_MULTIPLIER = "mul8u_acc"
#: Host-speed sampling: every ``SAMPLE_EVERY_S`` the sampler thread times,
#: in thread CPU time, ``SAMPLE_CALLS`` numpy adds of two 4 KiB vectors and
#: ``SAMPLE_LOOPS`` iterations of a Python loop (about equal halves).
SAMPLE_EVERY_S = 0.010
SAMPLE_CALLS = 210
SAMPLE_LOOPS = 3000
#: Thread CPU seconds of one sample that normalised times are scaled to: a
#: normalised time is the time the work would take on a host where one
#: sample takes exactly this long.
SAMPLE_NOMINAL_S = 0.00025


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "retrain" | "serve"
    arch: str
    multiplier: str
    batch: int  # training batch, or requests per closed-loop burst
    warmup: int  # untimed steps, or untimed bursts
    pool: dict = field(default_factory=dict)  # WorkerPool settings


WORKLOADS = {
    w.name: w
    for w in (
        Workload("retrain-resnet18-2NDH", "retrain", "resnet18",
                 "mul8u_2NDH", 32, 1),
        Workload("retrain-vgg19-7syn2", "retrain", "vgg19",
                 "mul7u_syn2", 32, 1),
        Workload("serve-vgg19-1DMU-b1", "serve", "vgg19", "mul8u_1DMU",
                 1, 30, {"workers": 1}),
        Workload("serve-resnet18-syn1-b32", "serve", "resnet18",
                 "mul8u_syn1", 32, 1, {"workers": 1, "max_batch": 32}),
    )
}


def tiny_variant(w: Workload) -> Workload:
    """LeNet at 12 px with a table multiplier: same code paths, seconds."""
    mult = "mul8u_2NDH" if "syn" in w.multiplier else w.multiplier
    return Workload(w.name, w.kind, "lenet", mult, w.batch, 1, w.pool)


@dataclass
class Window:
    """What one timed window measured."""

    seconds: float = 0.0
    cpu_seconds: float = 0.0
    latencies: list = field(default_factory=list)  # seconds per success
    op_cpu: list = field(default_factory=list)  # CPU seconds per operation
    op_norm: list = field(default_factory=list)  # the same, normalised
    spans: list = field(default_factory=list)  # (start, end) per operation
    completed: int = 0  # samples (retrain) or requests (serve) that passed
    attempted: int = 0
    failed: int = 0
    max_dev: float = 0.0
    requests: list = field(default_factory=list)  # (PendingRequest, s)

    @property
    def throughput(self) -> float:
        return self.completed / self.seconds if self.seconds > 0 else 0.0

    @property
    def cpu_throughput(self) -> float:
        return (self.completed / self.cpu_seconds
                if self.cpu_seconds > 0 else 0.0)

    @property
    def norm_throughput(self) -> float:
        total = sum(self.op_norm)
        return self.completed / total if total > 0 else 0.0


# ----------------------------------------------------------------------
# Inputs and set-up
def build_model(w: Workload, image_size: int):
    if w.arch == "lenet":
        return LeNet(num_classes=N_CLASSES, image_size=image_size, seed=0)
    build = resnet18 if w.arch == "resnet18" else vgg19
    return build(num_classes=N_CLASSES, width_mult=0.25, seed=0)


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for.

    Unlike wall time it does not grow while other processes of the machine
    hold the CPU, nor with the steal time the host reports.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class HostSpeed:
    """Samples how fast the CPU this process is pinned to runs right now.

    The shared host this benchmark runs on changes the speed of a guest CPU
    by up to 2x within seconds, with no steal time reported to the guest,
    so CPU time grows with wall time.  A daemon thread therefore times a
    fixed piece of work every ``SAMPLE_EVERY_S`` on the same CPU as the
    program, and each span of program work is divided by the mean sample
    taken during it.  The work calls no program code, so a change to the
    program cannot move it.  Its own CPU time is kept in ``cpu_total`` so
    callers can subtract it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, CPU seconds)
        self.cpu_total = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-host-speed")

    def _run(self) -> None:
        a = np.zeros(1024, dtype=np.int32)
        one = np.ones(1024, dtype=np.int32)
        while not self._stop.wait(SAMPLE_EVERY_S):
            c0 = time.thread_time()
            for _ in range(SAMPLE_CALLS):
                np.add(a, one, out=a)
            acc = 0
            for i in range(SAMPLE_LOOPS):
                acc += i & 7
            dt = time.thread_time() - c0
            self.samples.append((time.perf_counter(), dt))
            self.cpu_total += dt

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def normalise(self, spans: list[tuple]) -> list[float]:
        """``(seconds, start, end)`` of work -> seconds at the nominal speed.

        Each span is scaled by the mean sample taken inside it, or by the
        two nearest samples for a span shorter than the sampling period.
        """
        samples = list(self.samples)
        times = [t for t, _ in samples]
        out = []
        for seconds, start, end in spans:
            lo = bisect.bisect_left(times, start)
            hi = bisect.bisect_right(times, end)
            if hi - lo < 2:
                lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
            mean = statistics.fmean(dt for _, dt in samples[lo:hi])
            out.append(seconds * SAMPLE_NOMINAL_S / mean)
        return out


class Work:
    """CPU seconds of the program's work in a span, the sampler's excluded."""

    def __init__(self, host: HostSpeed):
        self.host = host

    def __enter__(self) -> "Work":
        self.start = time.perf_counter()
        self._c0 = cpu_seconds() - self.host.cpu_total
        return self

    def __exit__(self, *exc) -> None:
        self.cpu = cpu_seconds() - self.host.cpu_total - self._c0
        self.end = time.perf_counter()


@contextlib.contextmanager
def phase(phases: dict, name: str):
    c0 = cpu_seconds()
    yield
    phases[name] = cpu_seconds() - c0


def reset_program_caches() -> None:
    """Forget every in-process cache set-up fills, so each repeat is cold."""
    get_multiplier.cache_clear()
    clear_engine_cache()
    execcore.reset_backend_state()


def setup_once(w: Workload, calib: ArrayDataset, image_size: int,
               seed: int) -> tuple[dict, dict]:
    """One set-up, from after the imports to ready-to-run, in CPU seconds."""
    phases: dict[str, float] = {}
    state: dict = {}
    with phase(phases, "get_multiplier_s"):
        mult = get_multiplier(w.multiplier)
    with phase(phases, "approximate_model_s"):
        model = approximate_model(
            build_model(w, image_size), mult,
            gradient_method="difference", hws=2,
        )
    with phase(phases, "calibrate_s"):
        calibrate(model, DataLoader(calib, batch_size=32),
                  batches=CALIB_BATCHES)
        freeze(model)
    with phase(phases, "backend_s"):
        execcore.backend_info()  # kernel load and self-checks
        if w.kind == "retrain":
            state["trainer"] = Trainer(
                model, TrainConfig(epochs=1, batch_size=w.batch, seed=seed)
            )
    if w.kind == "serve":
        with phase(phases, "compile_plan_s"):
            model.eval()
            plan = compile_plan(model, arithmetic="int")
            state["pool"] = WorkerPool(lambda: plan, **w.pool).start()
        state["plan"] = plan
    else:
        phases["compile_plan_s"] = 0.0
    state["model"] = model
    phases["total_s"] = sum(phases.values())
    return state, phases


def setup(w: Workload, calib, image_size: int, seed: int, repeats: int,
          host: HostSpeed) -> tuple[dict, dict]:
    """``repeats`` cold set-ups; keeps the last, reports each phase's median.

    Phases are CPU seconds; ``total_norm_s`` is the total normalised to
    the nominal host speed.
    """
    runs = []
    state: dict = {}
    for _ in range(repeats):
        if "pool" in state:
            state["pool"].shutdown()
        state = {}
        gc.collect()
        reset_program_caches()
        with Work(host) as work:
            state, phases = setup_once(w, calib, image_size, seed)
        time.sleep(2 * SAMPLE_EVERY_S)  # a sample after the end
        phases["total_norm_s"], = host.normalise(
            [(work.cpu, work.start, work.end)]
        )
        runs.append(phases)
    return state, {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ----------------------------------------------------------------------
# Operations
def run_window(op, seconds: float, host: HostSpeed) -> Window:
    """Call ``op(win)`` until ``seconds`` of wall time have passed.

    Each operation's CPU time (the sampler's excluded) is kept raw and
    normalised by the host-speed samples taken while it ran.
    """
    win = Window()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        with Work(host) as work:
            op(win)
        win.op_cpu.append(work.cpu)
        win.spans.append((work.start, work.end))
    win.seconds = time.perf_counter() - t0
    win.cpu_seconds = sum(win.op_cpu)
    # The sample after the last operation must exist before normalising.
    time.sleep(2 * SAMPLE_EVERY_S)
    win.op_norm = host.normalise(
        [(c, a, b) for c, (a, b) in zip(win.op_cpu, win.spans)]
    )
    return win


def retrain_op(trainer: Trainer, data: ArrayDataset, batch: int):
    """One operation = one ``Trainer.fit`` epoch over one batch."""
    n_batches = len(data) // batch
    counter = [0]

    def op(win: Window) -> None:
        i = counter[0] % n_batches
        counter[0] += 1
        sl = slice(i * batch, (i + 1) * batch)
        win.attempted += 1
        t0 = time.perf_counter()
        try:
            history = trainer.fit(ArrayDataset(data.images[sl],
                                               data.labels[sl]))
        except Exception:  # one failed step must not end the run
            traceback.print_exc(file=sys.stderr)
            win.failed += 1
            return
        dt = time.perf_counter() - t0
        if not math.isfinite(history.train_loss[0]):
            win.failed += 1
            return
        win.latencies.append(dt)
        win.completed += batch

    return op


def serve_op(pool: WorkerPool, inputs: np.ndarray, refs: np.ndarray,
             burst: int):
    """One operation = one closed-loop burst of ``burst`` requests."""
    counter = [0]
    n = len(inputs)

    def op(win: Window) -> None:
        idx = [(counter[0] + j) % n for j in range(burst)]
        counter[0] += burst
        win.attempted += burst
        sent = []
        for i in idx:
            t0 = time.perf_counter()
            try:
                sent.append((i, t0, pool.submit(inputs[i])))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                win.failed += 1
        for i, t0, fut in sent:
            try:
                out = fut.result(timeout=60.0)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                win.failed += 1
                continue
            done = time.perf_counter()
            dev = float(np.max(np.abs(out - refs[i])))
            win.max_dev = max(win.max_dev, dev)
            if np.argmax(out) != np.argmax(refs[i]) or not dev <= SERVE_TOL:
                win.failed += 1
                continue
            win.latencies.append(done - t0)
            win.requests.append((fut, done - t0))
            win.completed += 1

    return op


def probe_identical(model, trainer: Trainer, x, y) -> bool:
    """A 2-sample step: C backend and numpy reference must agree bitwise."""
    def probe():
        trainer.optimizer.zero_grad()
        loss = cross_entropy(model(Tensor(x)), y)
        loss.backward()
        return loss.item(), [p.grad.copy() for p in model.parameters()]

    loss_c, grads_c = probe()
    os.environ["REPRO_NO_CCKERNEL"] = "1"
    try:
        loss_np, grads_np = probe()
    finally:
        del os.environ["REPRO_NO_CCKERNEL"]
    return (
        math.isfinite(loss_c)
        and loss_c == loss_np
        and all(np.array_equal(a, b) for a, b in zip(grads_c, grads_np))
    )


# ----------------------------------------------------------------------
# Metrics
def percentile(values, q: int) -> float:
    """The ``q``-th percentile (1..99) by linear interpolation."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(win: Window, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "throughput_per_s": win.norm_throughput,
        "op_ms_p50": statistics.median(win.op_norm) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def wall_figures(win: Window) -> dict:
    """Wall-clock figures of a window: reported, not gated (see README)."""
    lat = win.latencies or [0.0]  # nothing passed: the run is incorrect
    return {
        "throughput_per_s": win.throughput,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "wall_over_cpu": (win.seconds / win.cpu_seconds
                          if win.cpu_seconds > 0 else 0.0),
        "latency_samples": len(win.latencies),
        "cpu_throughput_per_s": win.cpu_throughput,
        "op_cpu_ms_p50": statistics.median(win.op_cpu) * 1e3,
    }


def exact_baseline(rec: layers.Recorder) -> dict[tuple, float]:
    """Per-call seconds of the exact multiplier on each recorded shape.

    Forward shapes time the exact forward (a float matmul); shapes seen
    by the backward time the exact backward (STE matmuls) as well.
    """
    mult = get_multiplier(EXACT_MULTIPLIER)
    engine = LutGemm(mult, gradient_luts(mult, "ste"))
    rng = np.random.default_rng(0)
    cost: dict[tuple, float] = {}
    for name, m, k, c, _backend in rec.shapes:
        if (name, m, k, c) in cost:
            continue
        wq = rng.integers(0, 256, (m, k)).astype(np.int64)
        xq = rng.integers(0, 256, (k, c)).astype(np.int64)
        gout = rng.standard_normal((m, c)).astype(np.float32)
        if name == "execcore.backward_grads":
            def call():
                engine.backward_grads(wq, xq, gout, 0, 0)
        else:
            def call():
                engine.product_sums(wq, xq, record_backward=False)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        cost[(name, m, k, c)] = statistics.median(times)
    return cost


def per_layer(rec: layers.Recorder, win: Window, ops: int, kind: str,
              untraced: Window, setup_phases: dict) -> tuple[dict, list]:
    """Per-layer metrics of the traced window, and the (M, K, C) table.

    Shares are self times over the time operations were busy: the step
    wall time for retraining, the ``plan.run`` time for serving (whose
    own share is over the window's wall time).
    """
    plan_s = rec.total("plan.run")
    busy = sum(win.latencies) if kind == "retrain" else plan_s
    per_op = max(ops, 1)

    def share(seconds):
        return seconds / busy if busy > 0 else 0.0

    def glookups(name):
        s = rec.self_time(name)
        return rec.lookups(name) / s / 1e9 if s > 0 else 0.0

    out: dict[str, float] = {}
    for name in ("execcore.product_sums", "execcore.backward_grads"):
        out[f"{name}.ms"] = rec.self_time(name) * 1e3 / per_op
        out[f"{name}.calls"] = rec.calls(name) / per_op
        out[f"{name}.share"] = share(rec.self_time(name))
        out[f"{name}.glookups_per_s"] = glookups(name)
    out["execcore.serve_fused.ms"] = (
        rec.self_time("execcore.serve_fused") * 1e3 / per_op
    )
    out["execcore.serve_fused.share"] = share(
        rec.self_time("execcore.serve_fused")
    )
    out["execcore.serve_fused.glookups_per_s"] = glookups("execcore.serve_fused")
    for name in ("lutkernel.im2col_serve", "functional.im2col",
                 "functional.col2im", "adam.step"):
        out[f"{name}.ms"] = rec.self_time(name) * 1e3 / per_op
        out[f"{name}.share"] = share(rec.self_time(name))
    out["autograd.backward.self_ms"] = (
        rec.self_time("autograd.backward") * 1e3 / per_op
    )
    out["plan.run.ms"] = plan_s * 1e3 / per_op
    out["plan.run.share"] = plan_s / win.seconds if win.seconds > 0 else 0.0
    for kind_name in layers.PLAN_OP_KINDS + ("other",):
        t = rec.total(f"plan.op.{kind_name}")
        out[f"plan.op.{kind_name}.share"] = t / plan_s if plan_s > 0 else 0.0

    # Scheduler and front end: each request's queue wait, and its latency
    # minus the plan.run of the batch that answered it (the first plan.run
    # to start after the request was dispatched).
    runs = sorted(rec.events.get("plan.run", []))
    waits, front = [], []
    for pending, latency in win.requests:
        waits.append((pending.dispatched_at - pending.enqueued_at) * 1e3)
        for start, dur, _size in runs:
            if start >= pending.dispatched_at:
                front.append(latency * 1e3 - dur * 1e3)
                break
    out["scheduler.queue_wait_ms.p50"] = statistics.median(waits) if waits else 0.0
    out["scheduler.batch_size.mean"] = (
        statistics.fmean(size for _s, _d, size in runs) if runs else 0.0
    )
    out["pool.front_end_ms.p50"] = statistics.median(front) if front else 0.0

    for key in ("get_multiplier_s", "approximate_model_s", "calibrate_s",
                "backend_s", "compile_plan_s"):
        out[f"setup.{key}"] = setup_phases[key]
    out["run.wall_over_cpu"] = (
        untraced.seconds / untraced.cpu_seconds
        if untraced.cpu_seconds > 0 else 0.0
    )
    out["trace.overhead"] = (
        untraced.norm_throughput / win.norm_throughput
        if win.norm_throughput > 0 else 0.0
    )
    out["serve.output_max_abs_dev"] = max(win.max_dev, untraced.max_dev)

    exact = exact_baseline(rec)
    table = []
    lut_s = exact_s = 0.0
    for (name, m, k, c, backend), (calls, lookups, s) in sorted(
        rec.shapes.items()
    ):
        ex = exact[(name, m, k, c)] * calls
        lut_s += s
        exact_s += ex
        table.append({
            "function": name, "M": m, "K": k, "C": c, "backend": backend,
            "calls": calls, "lookups": lookups, "ms": s * 1e3,
            "glookups_per_s": lookups / s / 1e9 if s > 0 else 0.0,
            "share": share(s), "exact_ms": ex * 1e3,
        })
    out["execcore.overhead_vs_exact"] = lut_s / exact_s if exact_s > 0 else 0.0
    return out, table


# ----------------------------------------------------------------------
def fingerprint() -> dict:
    """The machine and build a result was measured on."""
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cc = shutil.which("cc")
    cc_version = None
    if cc:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=30)
        cc_version = out.stdout.splitlines()[0] if out.stdout else None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cc": cc_version,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in
                 ("name", "version", "openblas configuration")},
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "backend": execcore.backend_info(),
        "repro_env": {k: v for k, v in os.environ.items()
                      if k.startswith("REPRO_")},
    }


def openblas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def require_c_backend() -> None:
    """Refuse to measure the numpy fallback where a compiler exists."""
    info = execcore.backend_info()
    slow = [k for k in ("forward_backend", "backward_backend",
                        "serve_backend") if info[k] != "c"]
    if shutil.which("cc") and (not info["c_kernel"] or slow):
        raise SystemExit(
            f"perfbench: a C compiler exists but the program runs "
            f"{slow or 'without its C kernel'}: {info}"
        )


def run(w: Workload, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """Run one workload; returns the result dict printed by ``main``."""
    if tiny:
        w = tiny_variant(w)
    image_size = 12 if tiny else IMAGE_SIZE
    repeats = 1 if tiny else SETUP_REPEATS
    n = (RETRAIN_BATCHES * w.batch if w.kind == "retrain" else SERVE_INPUTS)
    data = SyntheticImageDataset(32 * CALIB_BATCHES + n, N_CLASSES,
                                 image_size, seed=seed)
    calib = ArrayDataset(data.images[: 32 * CALIB_BATCHES],
                         data.labels[: 32 * CALIB_BATCHES])
    inputs = ArrayDataset(data.images[32 * CALIB_BATCHES:],
                          data.labels[32 * CALIB_BATCHES:])
    require_c_backend()

    with HostSpeed() as host:
        result = measure(w, seed, seconds, trace, image_size, repeats,
                         calib, inputs, host)
    samples = [dt for _, dt in host.samples]
    result["host_speed"] = {
        "samples": len(samples),
        "sample_ms_q1_median_q3": [
            q * 1e3 for q in statistics.quantiles(samples, n=4)
        ] if len(samples) > 1 else [],
    }
    return result


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            image_size: int, repeats: int, calib, inputs,
            host: HostSpeed) -> dict:
    """Set up, warm up, measure and check one workload."""
    state, phases = setup(w, calib, image_size, seed, repeats, host)
    try:
        if w.kind == "retrain":
            op = retrain_op(state["trainer"], inputs, w.batch)
        else:
            pool, plan = state["pool"], state["plan"]
            # The pool's worker thread stays on the sampled CPU; the client
            # runs beside it, so a burst is submitted while the worker runs.
            rest = ALL_CPUS - os.sched_getaffinity(0)
            if rest:
                os.sched_setaffinity(0, rest)
            # References before any traffic: the worker thread is idle.
            refs = np.concatenate([plan.run(x[None]) for x in inputs.images])
            op = serve_op(pool, inputs.images, refs, w.batch)
        warm = Window()
        for _ in range(w.warmup):
            op(warm)
        untraced = run_window(op, seconds, host)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        windows = [warm, untraced]
        result: dict = {}
        if trace:
            rec = layers.Recorder()
            layers.install_program(rec)
            if w.kind == "serve":
                layers.install_plan(rec, plan)
            try:
                traced = run_window(op, seconds, host)
            finally:
                rec.restore()
            windows.append(traced)
            ops = (len(traced.latencies) if w.kind == "retrain"
                   else traced.completed)
            result["metrics"], result["layer_table"] = per_layer(
                rec, traced, ops, w.kind, untraced, phases
            )
        else:
            result["metrics"] = end_to_end(untraced, phases["total_norm_s"],
                                           peak_rss_mb)
        result["wall"] = wall_figures(untraced)
        # Per operation of the timed window: start, end, CPU s, normalised s.
        result["ops"] = [
            (a, b, c, n) for (a, b), c, n in
            zip(untraced.spans, untraced.op_cpu, untraced.op_norm)
        ]
        attempted = sum(x.attempted for x in windows)
        failed = sum(x.failed for x in windows)
        if w.kind == "retrain":
            x, y = inputs.images[:2], inputs.labels[:2]
            attempted += 1
            try:
                same = probe_identical(state["model"], state["trainer"], x, y)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                same = False
            if not same:
                print("perfbench: probe step differs between the C backend "
                      "and the numpy reference", file=sys.stderr)
                failed += 1
    finally:
        if "pool" in state:
            state["pool"].shutdown()
    result.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        setup_phases=phases,
        fingerprint=fingerprint(),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="LeNet at 12 px: same code paths, seconds")
    parser.add_argument("--prime", action="store_true",
                        help="only build and load the C kernel")
    args = parser.parse_args(argv)
    if args.prime:
        lutkernel.kernel_available()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # The program's work and the host-speed sampler share one CPU, so the
    # samples measure the CPU the work runs on.  Threads started from here
    # on inherit it; serving moves its client thread off it (``measure``).
    os.sched_setaffinity(0, {min(ALL_CPUS)})
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

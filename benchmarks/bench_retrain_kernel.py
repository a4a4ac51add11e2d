"""Benchmark: end-to-end retraining on the fused C kernel vs numpy.

Retrains the same frozen approximate model twice -- once with the
execution core pinned to the numpy backend (``REPRO_NO_CCKERNEL=1``) and
once on the fused C forward/backward kernels -- and verifies the two runs
are *bit-identical*: the same per-epoch loss history, the same final
weights, and the same per-parameter gradients on a probe batch.  The
backend choice must be purely a speed decision.

The gated (full) run uses a quarter-width ResNet-18, the paper's CIFAR
model family, whose conv GEMMs are fat enough that LUT-GEMM time
dominates the epoch; ``--smoke`` uses a tiny LeNet for speed.

Run standalone (the CI smoke job does exactly this)::

    python benchmarks/bench_retrain_kernel.py --smoke  # tiny run, identity
                                                       # checks only
    python benchmarks/bench_retrain_kernel.py          # asserts >= 3x epoch
                                                       # time speedup

Results are printed, written to ``benchmarks/results/retrain_kernel.txt``,
and emitted machine-readable as ``BENCH_retrain.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.autograd.tensor import Tensor  # noqa: E402
from repro.core import execcore  # noqa: E402
from repro.core.lutgemm import clear_engine_cache  # noqa: E402
from repro.data import DataLoader, SyntheticImageDataset  # noqa: E402
from repro.models import LeNet, resnet18  # noqa: E402
from repro.multipliers import get_multiplier  # noqa: E402
from repro.nn.losses import cross_entropy  # noqa: E402
from repro.retrain.convert import (  # noqa: E402
    approximate_model,
    calibrate,
    freeze,
)
from repro.retrain.trainer import TrainConfig, Trainer  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Full-mode gate from the issue: the fused kernel must deliver at least
#: this end-to-end epoch-time speedup over the numpy tape.
EPOCH_SPEEDUP_GATE = 3.0

MULTIPLIER = "mul8u_2NDH"


def build_model(smoke: bool, image_size: int):
    """The retraining workload: LeNet for smoke, the paper's ResNet family
    (at quarter width) for the gated run -- its conv GEMMs are fat enough
    (M up to 128, K up to 1152) that the LUT-GEMM dominates epoch time,
    matching the paper's CIFAR workloads."""
    if smoke:
        return LeNet(num_classes=4, image_size=image_size, seed=1)
    return resnet18(num_classes=4, width_mult=0.25, seed=1)


def train_once(
    use_ckernel: bool,
    smoke: bool,
    train_data,
    probe_batch,
    epochs: int,
    batch_size: int,
    image_size: int,
):
    """One full retraining run on the requested backend.

    Rebuilds the model and every engine from scratch (same seeds), so the
    two runs differ *only* in which backend the execution core picks.
    Returns loss history, per-epoch times, final weights, probe-batch
    gradients, and the backend the run actually used.
    """
    prior = os.environ.get("REPRO_NO_CCKERNEL")
    if not use_ckernel:
        os.environ["REPRO_NO_CCKERNEL"] = "1"
    # use_ckernel=True leaves the environment untouched: a pre-set
    # REPRO_NO_CCKERNEL (e.g. the CI numpy-backend leg) is honored, the
    # run degrades to numpy-vs-numpy, and the timing gate self-disables.
    clear_engine_cache()
    execcore.reset_backend_state()
    try:
        model = build_model(smoke, image_size)
        approx = approximate_model(
            model,
            get_multiplier(MULTIPLIER),
            gradient_method="difference",
            hws=2,
        )
        calibrate(approx, DataLoader(train_data, batch_size=batch_size),
                  batches=3)
        freeze(approx)
        backend = execcore.backend_info()
        trainer = Trainer(
            approx,
            TrainConfig(epochs=epochs, batch_size=batch_size, seed=1),
        )
        history = trainer.fit(train_data)
        # Probe-batch gradients: one extra forward/backward on a fixed
        # batch of the *final* weights, compared array-for-array.
        x, y = probe_batch
        trainer.optimizer.zero_grad()
        loss = cross_entropy(approx(Tensor(x)), y)
        loss.backward()
        weights = [p.data.copy() for p in approx.parameters()]
        grads = [p.grad.copy() for p in approx.parameters()]
        return {
            "loss": list(history.train_loss),
            "epoch_time": list(history.epoch_time),
            "weights": weights,
            "grads": grads,
            "probe_loss": loss.item(),
            "backend": backend,
        }
    finally:
        if prior is None:
            os.environ.pop("REPRO_NO_CCKERNEL", None)
        else:
            os.environ["REPRO_NO_CCKERNEL"] = prior
        clear_engine_cache()
        execcore.reset_backend_state()


def host_info() -> dict:
    """The machine the timings were measured on."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def check_identical(numpy_run, kernel_run) -> list[str]:
    """Bit-identity failures between the two runs (empty = identical)."""
    failures = []
    if numpy_run["loss"] != kernel_run["loss"]:
        failures.append(
            f"loss history differs: {numpy_run['loss']} vs "
            f"{kernel_run['loss']}"
        )
    if numpy_run["probe_loss"] != kernel_run["probe_loss"]:
        failures.append("probe-batch loss differs")
    for i, (a, b) in enumerate(
        zip(numpy_run["weights"], kernel_run["weights"])
    ):
        if not np.array_equal(a, b):
            failures.append(f"final weights differ at parameter {i}")
    for i, (a, b) in enumerate(zip(numpy_run["grads"], kernel_run["grads"])):
        if not np.array_equal(a, b):
            failures.append(f"probe-batch gradient differs at parameter {i}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run, bit-identity checks only (no timing gate)",
    )
    parser.add_argument("--epochs", type=int, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        samples, image_size, epochs, batch = 96, 12, args.epochs or 1, 32
    else:
        samples, image_size, epochs, batch = 128, 16, args.epochs or 1, 64

    train = SyntheticImageDataset(samples, 4, image_size, seed=1,
                                  split="train")
    probe = next(iter(DataLoader(train, batch_size=batch, shuffle=False)))

    t0 = time.perf_counter()
    numpy_run = train_once(False, args.smoke, train, probe, epochs, batch,
                           image_size)
    kernel_run = train_once(True, args.smoke, train, probe, epochs, batch,
                            image_size)
    total = time.perf_counter() - t0

    failures = check_identical(numpy_run, kernel_run)

    np_epoch = float(np.mean(numpy_run["epoch_time"]))
    ck_epoch = float(np.mean(kernel_run["epoch_time"]))
    speedup = np_epoch / ck_epoch if ck_epoch > 0 else float("inf")
    kernel_active = kernel_run["backend"]["c_kernel"]
    gate_applied = not args.smoke and kernel_active

    model_name = (
        f"lenet{image_size}" if args.smoke else f"resnet18x0.25-{image_size}"
    )
    lines = [
        f"retrain-kernel benchmark ({model_name}, {MULTIPLIER}, "
        f"{samples} samples, {epochs} epoch(s), batch {batch})",
        f"numpy backend : {np_epoch * 1e3:9.1f} ms/epoch",
        f"C kernel      : {ck_epoch * 1e3:9.1f} ms/epoch "
        f"(forward={kernel_run['backend']['forward_backend']}, "
        f"backward={kernel_run['backend']['backward_backend']}, "
        f"threads={kernel_run['backend']['threads']})",
        f"epoch speedup : {speedup:9.2f}x",
        "bit-identity  : "
        + ("OK (loss curve, final weights, probe gradients)"
           if not failures else "FAILED"),
    ]
    if not kernel_active:
        lines.append(
            "note: C kernel unavailable (no compiler or disabled); both "
            "runs used numpy, timing gate skipped"
        )
    text = "\n".join(lines)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "retrain_kernel.txt").write_text(text + "\n")

    payload = {
        "bench": "retrain_kernel",
        "model": model_name,
        "multiplier": MULTIPLIER,
        "samples": samples,
        "epochs": epochs,
        "batch_size": batch,
        "numpy_epoch_s": np_epoch,
        "ckernel_epoch_s": ck_epoch,
        "epoch_speedup": speedup,
        "speedup_gate": EPOCH_SPEEDUP_GATE,
        "gate_applied": gate_applied,
        "bit_identical": not failures,
        "backend": kernel_run["backend"],
        "host": host_info(),
        "loss_history": kernel_run["loss"],
        "wall_time_s": total,
        "failures": failures,
    }
    (REPO_ROOT / "BENCH_retrain.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    if gate_applied and speedup < EPOCH_SPEEDUP_GATE:
        print(
            f"FAIL: epoch speedup {speedup:.2f}x < "
            f"{EPOCH_SPEEDUP_GATE:.1f}x",
            file=sys.stderr,
        )
        return 1
    if gate_applied:
        print(
            f"OK: epoch speedup {speedup:.2f}x "
            f"(>= {EPOCH_SPEEDUP_GATE:.1f}x), bit-identical"
        )
    else:
        print("OK: bit-identical (timing gate not applied)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

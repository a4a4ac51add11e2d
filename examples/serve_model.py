"""Serve a retrained approximate model over HTTP with `repro.serve`.

Walks the deployment half of the story: after retraining recovers the
accuracy lost to the approximate multiplier, the training graph (tape,
gradient LUTs, autograd bookkeeping) is pure overhead at inference time.
``repro.serve`` compiles the frozen model into a flat plan of integer ops,
runs it on a micro-batching worker pool, and exposes it via a stdlib HTTP
endpoint:

1. pretrain a tiny LeNet and retrain it with an AppMult (short budget),
2. save / reload the checkpoint the way a deployment would,
3. compile the inference plan and check it is bit-identical to the
   eval-mode forward,
4. start the HTTP server on a random port and hit /healthz, /predict
   (single + burst of singles, which the scheduler coalesces), /metrics
   (JSON, then the Prometheus text, whose request count must match),
5. drain the pool and print the serving report.

The same thing is available from the command line::

    repro serve --checkpoint model.npz --multiplier mul7u_rm6 --port 8080

Run:  python examples/serve_model.py
"""

import json
import os
import tempfile
import threading
import urllib.request

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data import DataLoader, SyntheticImageDataset
from repro.models import LeNet
from repro.multipliers import get_multiplier
from repro.retrain import (
    TrainConfig,
    Trainer,
    approximate_model,
    calibrate,
    freeze,
)
from repro.retrain.checkpoint import load_checkpoint, save_checkpoint
from repro.serve import ServeMetrics, WorkerPool, compile_plan, make_server

MULTIPLIER = "mul7u_rm6"
IMAGE_SIZE = 12


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def _post(url: str, payload: dict) -> dict:
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def main() -> None:
    train = SyntheticImageDataset(128, 4, IMAGE_SIZE, seed=3, split="train")

    print("== 1. Pretrain + retrain with", MULTIPLIER, "==")
    model = LeNet(num_classes=4, image_size=IMAGE_SIZE, seed=0)
    Trainer(model, TrainConfig(epochs=1, batch_size=32)).fit(train)
    approx = approximate_model(
        model, get_multiplier(MULTIPLIER),
        gradient_method="difference", hws=2, include_linear=True,
    )
    calibrate(approx, DataLoader(train, batch_size=32), batches=2)
    freeze(approx)
    Trainer(approx, TrainConfig(epochs=1, batch_size=32)).fit(train)

    print("\n== 2. Checkpoint round-trip ==")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "serve_demo.npz")
        save_checkpoint(approx, ckpt)
        served = approximate_model(
            LeNet(num_classes=4, image_size=IMAGE_SIZE, seed=0),
            get_multiplier(MULTIPLIER),
            gradient_method="none",  # forward-only engines, no gradient LUTs
            include_linear=True,
        )
        load_checkpoint(served, ckpt)
    served.eval()

    print("\n== 3. Compile the inference plan ==")
    plan = compile_plan(served)
    x = np.random.default_rng(7).standard_normal((4, 3, IMAGE_SIZE, IMAGE_SIZE))
    with no_grad():
        ref = served(Tensor(x)).data
    assert np.array_equal(plan.run(x), ref), "plan must be bit-identical"
    print(plan.describe())

    print("\n== 4. Serve over HTTP ==")
    metrics = ServeMetrics()
    pool = WorkerPool(
        lambda: compile_plan(served),
        workers=1, max_batch=8, max_wait_ms=5.0, metrics=metrics,
    )
    pool.start()
    server = make_server(pool, metrics, port=0, model_name="lenet-demo",
                         input_ndim=3)
    host, port = server.server_address
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://{host}:{port}"

    print("healthz :", _get(f"{base}/healthz"))
    sample = x[0].tolist()
    reply = _post(f"{base}/predict", {"inputs": sample})
    print("predict :", {"predictions": reply["predictions"]})
    assert reply["predictions"][0] == int(np.argmax(ref[0]))

    burst = _post(f"{base}/predict", {"inputs": x.tolist()})
    print("burst   :", {"predictions": burst["predictions"]})

    snap = _get(f"{base}/metrics")
    print("metrics : predictions_total =",
          snap["counters"]["predictions_total"],
          " batch sizes =", snap["batch_size_histogram"])
    # The Prometheus exposition counts every answered request once.
    n_predicted = 1 + len(x)
    with urllib.request.urlopen(f"{base}/metrics?format=text",
                                timeout=10) as resp:
        text = resp.read().decode()
    count_line = 'repro_latency_ms_count{series="request_ms"}'
    counts = [line.split()[-1] for line in text.splitlines()
              if line.startswith(count_line + " ")]
    assert counts == [str(n_predicted)], (counts, n_predicted)
    print(f"metrics : {count_line} {counts[0]}")

    print("\n== 5. Drain and report ==")
    server.shutdown()
    server.server_close()
    pool.shutdown(drain=True)
    print(metrics.format_report())


if __name__ == "__main__":
    main()

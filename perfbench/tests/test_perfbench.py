"""Tests of the benchmark itself, on the tiny (LeNet, 12 px) workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys
import threading
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workload  # noqa: E402


def run_tiny(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_matches_workloads():
    assert set(WORKLOADS) <= set(workload.WORKLOADS)
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in e2e
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema(name, trace):
    result = run_tiny(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        # Self-time shares of distinct layers never overlap.
        kernels = sum(
            values[f"{n}.share"] for n in (
                "execcore.product_sums", "execcore.backward_grads",
                "execcore.serve_fused", "lutkernel.im2col_serve",
                "functional.im2col", "functional.col2im", "adam.step",
            )
        )
        assert 0 < kernels <= 1
        plan_ops = sum(v for k, v in values.items()
                       if k.startswith("plan.op."))
        assert plan_ops <= 1 + 1e-9
        assert values["plan.run.share"] <= 1


def test_bare_directory_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_response_counts_as_failure(monkeypatch):
    from repro.serve.plan import InferencePlan

    real_run = InferencePlan.run

    def corrupt_in_worker(self, x):
        out = real_run(self, x)
        if threading.current_thread().name.startswith("repro-serve-worker"):
            out = out.copy()
            out[:, 0] += 100.0  # far outside the tolerance
        return out

    monkeypatch.setattr(InferencePlan, "run", corrupt_in_worker)
    result = workload.run(workload.WORKLOADS["serve-vgg19-1DMU-b1"], seed=3,
                          seconds=0.5, trace=False, tiny=True)
    assert result["failed"] == result["attempted"] > 0
    assert result["correct"] is False


def test_nonfinite_loss_counts_as_failure(monkeypatch):
    from repro.retrain import trainer

    real_loss = trainer.cross_entropy
    calls = []

    def nan_on_second_step(logits, y):
        calls.append(1)
        loss = real_loss(logits, y)
        return loss * float("nan") if len(calls) == 2 else loss

    monkeypatch.setattr(trainer, "cross_entropy", nan_on_second_step)
    result = workload.run(workload.WORKLOADS["retrain-resnet18-2NDH"],
                          seed=3, seconds=0.5, trace=False, tiny=True)
    assert result["failed"] == 1
    assert result["attempted"] >= 3  # warm-up, timed steps, probe step
    assert result["correct"] is False


def test_host_speed_normalises_by_samples_inside_the_span():
    host = workload.HostSpeed()
    slow = 2 * workload.SAMPLE_NOMINAL_S
    host.samples = [(float(t), slow) for t in range(11)]
    # Work measured while the host ran at half the nominal speed counts half.
    assert host.normalise([(2.0, 2.5, 7.5)]) == [pytest.approx(1.0)]


def test_host_speed_short_span_uses_nearest_samples():
    host = workload.HostSpeed()
    nominal = workload.SAMPLE_NOMINAL_S
    host.samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 4 * nominal)]
    # No sample inside (0.4, 0.6): the ones at 0 and 1 s bracket it.
    assert host.normalise([(0.3, 0.4, 0.6)]) == [pytest.approx(0.2)]


def test_host_speed_sampler_runs_and_stops():
    with workload.HostSpeed() as host:
        with workload.Work(host) as work:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
    assert not host._thread.is_alive()
    assert len(host.samples) >= 5 and host.cpu_total > 0
    assert 0 < work.cpu < 0.25

"""Benchmark entry point: one workload, one fresh process, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload retrain-resnet18-2NDH --seed 1 \
        --seconds 15 --trace 0

It prepares the environment before the program loads: it clears
every ``REPRO_*`` variable, pins the BLAS thread pools to one thread, and
points the program's JIT kernel cache (the temp dir) at ``.perfbench/tmp``
inside the checkout.  It then runs an untimed priming process, so a cold
kernel build never lands in a timed run, and runs the workload in a fresh
process (``perfbench/workload.py``).

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``
with ``--trace 0`` and the ``per_layer`` ones with ``--trace 1``.  The
whole result, with the environment fingerprint and, for traced runs, the
per-(M, K, C) table, is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
#: Every run ends within this many seconds, killed children included.
DEADLINE_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> tuple[dict, list[str]]:
    """The workload's environment, and the ``REPRO_*`` names it cleared."""
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("REPRO_"))
    for k in cleared:
        del env[k]
    for k in THREAD_VARS:
        env[k] = "1"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed hashing keeps set and dict orders, and with them allocation
    # patterns, the same from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    return env, cleared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="LeNet at 12 px, for the benchmark's own tests")
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env, cleared = child_env()
    workload_py = str(HERE / "workload.py")
    try:
        subprocess.run(
            [sys.executable, workload_py, "--prime"], env=env, check=True,
            stdout=subprocess.DEVNULL, timeout=60,
        )
        cmd = [sys.executable, workload_py, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(
            cmd, env=env, check=True, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.monotonic() - start),
        )
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: timed out: {exc}", file=sys.stderr)
        return 1

    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    result = json.loads(lines[-1])
    values = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in wanted})
    if missing or extra:
        print(f"perfbench: metrics missing {missing}, unexpected {extra}",
              file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    result["fingerprint"]["repro_env_cleared"] = cleared
    result["metrics"] = metrics
    result.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, tiny=args.tiny)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    mode = "trace" if args.trace else "timed"
    suffix = "-tiny" if args.tiny else ""
    artifact = results / f"{args.workload}-{mode}-seed{args.seed}{suffix}.json"
    artifact.write_text(json.dumps(result, indent=1) + "\n")

    print("fingerprint: " + json.dumps(result["fingerprint"]))
    if "wall" in result:
        print("wall: " + json.dumps(result["wall"]))
    print(f"artifact: {artifact.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

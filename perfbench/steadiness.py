"""Steadiness report: run every workload on several seeds and summarise.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 --output perfbench/STEADINESS.md
    python3 perfbench/steadiness.py --runs 5 --workloads serve-vgg19-1DMU-b1
    python3 perfbench/steadiness.py --runs 10 --baseline first.json \
        --output perfbench/STEADINESS.md

Each run is one ``perfbench/run.py`` call (timed mode, seeds 1..runs, the
``run_seconds`` of ``BENCHMARK.json``).  For every end-to-end metric the
report gives the median, quartiles (``statistics.quantiles(n=4)``), min,
max and the spread -- the distance between the quartiles as a share of
the median -- next to the metric's bound, with the fingerprint of the
machine the runs were made on.  Raw results go to
``.perfbench/steadiness.json``.  ``--baseline`` takes such a file from an
earlier set of the same code and adds a table of how far each median
moved, in the metric's worse direction, against its bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("fingerprint: "):
            result["fingerprint"] = json.loads(line[len("fingerprint: "):])
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med}


def compare(first: dict, second: dict, metrics: list) -> list[str]:
    """Markdown rows: each median of ``second`` against that of ``first``."""
    lines = [
        "",
        "## Second set against the first (same code)",
        "",
        "| workload | metric | first median | second median | worse by | "
        "bound |",
        "|---|---|---|---|---|---|",
    ]
    worst = 0.0
    for w in second:
        if w not in first:
            continue
        for m in metrics:
            a, b = (statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in runs)
                    for runs in (first[w], second[w]))
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            worst = max(worst, worse / m["bound"])
            lines.append(f"| {w} | {m['name']} | {a:.4g} | {b:.4g} | "
                         f"{worse:+.3f} | {m['bound']} |")
    lines += ["", "Largest move in the worse direction as a share of its "
              f"bound: {worst:.2f}."]
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="write the markdown report here")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="steadiness.json of an earlier set to compare")
    args = parser.parse_args(argv)

    raw: dict[str, list] = {}
    fingerprint = None
    for w in args.workloads:
        raw[w] = []
        for seed in range(1, args.runs + 1):
            t0 = time.monotonic()
            result = run_once(w, seed, spec["run_seconds"])
            fingerprint = result.pop("fingerprint", fingerprint)
            result["wall_s"] = time.monotonic() - t0
            raw[w].append(result)
            print(f"{w} seed {seed}: {result['failed']}/{result['attempted']}"
                  f" failed, " + ", ".join(
                      f"{k}={v['value']:.4g}"
                      for k, v in result["metrics"].items())
                  + f" ({result['wall_s']:.0f} s)", flush=True)

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(
        json.dumps({"fingerprint": fingerprint, "runs": raw}, indent=1))

    lines = [
        f"# Steadiness: {args.runs} runs per workload, seeds 1..{args.runs}, "
        f"{spec['run_seconds']} s each",
        "",
        f"Measured {time.strftime('%Y-%m-%d %H:%M UTC', time.gmtime())}.",
        "",
        "Fingerprint: `" + json.dumps(fingerprint) + "`",
        "",
    ]
    worst = 0.0
    for w, results in raw.items():
        walls = [r["wall_s"] for r in results]
        lines += [
            f"## {w}",
            "",
            f"Operations failed: {sum(r['failed'] for r in results)} of "
            f"{sum(r['attempted'] for r in results)}; all correct: "
            f"{all(r['correct'] for r in results)}; wall per run "
            f"{min(walls):.0f}-{max(walls):.0f} s.",
            "",
            "| metric | unit | median | q1 | q3 | min | max | spread | "
            "bound |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for m in spec["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in results])
            if m["name"] != "setup_s":
                worst = max(worst, s["spread"] / m["bound"])
            lines.append(
                f"| {m['name']} | {m['unit']} | {s['median']:.4g} | "
                f"{s['q1']:.4g} | {s['q3']:.4g} | {s['min']:.4g} | "
                f"{s['max']:.4g} | {s['spread']:.3f} | {m['bound']} |"
            )
        lines.append("")
    lines.append(
        f"Largest spread as a share of its bound (setup_s excluded): "
        f"{worst:.2f}."
    )
    if args.baseline:
        lines += compare(json.loads(args.baseline.read_text())["runs"], raw,
                         spec["end_to_end"])
    text = "\n".join(lines) + "\n"
    print(text)
    if args.output:
        args.output.write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

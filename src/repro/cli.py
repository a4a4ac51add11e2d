"""Command-line interface.

Three subcommands mirror the main workflows::

    python -m repro.cli characterize [names...]     # Table I rows
    python -m repro.cli retrain --multiplier NAME   # one STE-vs-ours run
    python -m repro.cli sweep --multipliers NAMES   # resumable parallel grid
    python -m repro.cli hws --multiplier NAME       # HWS sweep
    python -m repro.cli export --multiplier NAME    # Verilog/BLIF dump
    python -m repro.cli serve --checkpoint CKPT --multiplier NAME  # HTTP server
    python -m repro.cli trace TRACE_DIR             # merge traces + stage report
    python -m repro.cli profile --mode retrain      # traced hotspot profile
    python -m repro.cli health RUN_DIR              # training-health report
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.multipliers.registry import TABLE1_NAMES


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.hw.report import characterize_all, format_table1

    names = tuple(args.names) if args.names else TABLE1_NAMES
    print(format_table1(characterize_all(names)))
    return 0


def _apply_no_cckernel(args: argparse.Namespace) -> None:
    """Honor ``--no-cckernel``: pin the numpy execution backend.

    Sets ``REPRO_NO_CCKERNEL`` for this process (and any forked sweep /
    serve workers) and resets the kernel cache so the flag wins even if
    an import already compiled the kernel.
    """
    if getattr(args, "no_cckernel", False):
        import os

        from repro.core import execcore

        os.environ["REPRO_NO_CCKERNEL"] = "1"
        execcore.reset_backend_state()


def _cmd_retrain(args: argparse.Namespace) -> int:
    from repro.core.lutgemm import format_engine_stats
    from repro.retrain.experiment import ExperimentScale, retrain_comparison
    from repro.retrain.results import format_table2

    _apply_no_cckernel(args)

    run_dir = getattr(args, "run_dir", None)
    if args.telemetry or run_dir:
        from pathlib import Path

        from repro.obs.telemetry import enable as telemetry_enable

        jsonl_path = None
        if run_dir:
            Path(run_dir).mkdir(parents=True, exist_ok=True)
            jsonl_path = str(Path(run_dir) / "health.jsonl")
        telemetry_enable(jsonl_path=jsonl_path)

    scale = ExperimentScale(
        image_size=args.image_size,
        n_train=args.n_train,
        n_test=max(args.n_train // 4, 64),
        width_mult=args.width_mult,
        pretrain_epochs=args.pretrain_epochs,
        retrain_epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    if args.profile:
        from repro.obs.export import format_table
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
    try:
        rows, refs = retrain_comparison(
            args.arch, [args.multiplier], scale, methods=("ste", "difference")
        )
    finally:
        if args.profile:
            tracer.disable()
    print(format_table2(rows, refs, title=f"{args.arch} / {args.multiplier}"))
    print()
    print(format_engine_stats())
    if args.profile:
        print()
        print(f"top {args.profile_top} hotspots by self time")
        print(format_table(tracer, sort="self", top=args.profile_top))
    from repro.obs.health import format_health_report, get_monitor

    # Covers --telemetry / --run-dir and REPRO_TELEMETRY=1 alike.
    if get_monitor().enabled:
        print()
        print(format_health_report(get_monitor().epoch_records()))
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.health import format_health_report, load_health_jsonl

    path = Path(args.run_dir)
    if path.is_dir():
        path = path / "health.jsonl"
    records = load_health_jsonl(path)
    print(format_health_report(records, width=args.width))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.retrain.experiment import ExperimentScale
    from repro.retrain.runner import SweepRunner
    from repro.retrain.sweep import SweepConfig
    from repro.serve.metrics import ServeMetrics

    scale = ExperimentScale(
        image_size=args.image_size,
        n_train=args.n_train,
        n_test=max(args.n_train // 4, 64),
        width_mult=args.width_mult,
        pretrain_epochs=args.pretrain_epochs,
        qat_epochs=args.qat_epochs,
        retrain_epochs=args.epochs,
        batch_size=args.batch_size,
    )
    config = SweepConfig(
        arch=args.arch,
        multipliers=list(args.multipliers),
        methods=tuple(args.methods),
        seeds=tuple(args.seeds),
        scale=scale,
        log_path=args.log,
    )

    def printer(event):
        line = f"[{event.kind:>9}] {event.run_id} attempt={event.attempt}"
        if event.elapsed_s:
            line += f" {event.elapsed_s:.1f}s"
        if event.samples_per_sec:
            line += f" {event.samples_per_sec:.1f} samples/s"
        if event.error:
            line += f" error={event.error}"
        print(line, flush=True)

    metrics = ServeMetrics()
    result = SweepRunner(
        config,
        workers=args.workers,
        resume=args.resume,
        max_retries=args.max_retries,
        metrics=metrics,
        on_event=printer,
    ).run()
    print()
    for mult in config.multipliers:
        for method in config.methods:
            vals = result.summary.final_top1.get((mult, method), [])
            if vals:
                print(
                    f"{mult:>16} / {method:<10} "
                    f"mean top-1 {result.summary.mean(mult, method):.4f} "
                    f"({len(vals)} seed(s))"
                )
            else:
                print(f"{mult:>16} / {method:<10} no completed runs")
    print()
    print(metrics.format_report())
    if result.failed:
        print(
            f"\n{len(result.failed)} cell(s) failed: "
            + ", ".join(st.run_id for st in result.failed),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_hws(args: argparse.Namespace) -> int:
    from repro.core.hws import select_hws
    from repro.multipliers.registry import get_multiplier

    result = select_hws(
        get_multiplier(args.multiplier),
        epochs=args.epochs,
        train_size=args.n_train,
        seed=args.seed,
    )
    for hws in result.candidates:
        marker = "  <-- selected" if hws == result.best_hws else ""
        print(f"hws={hws:<3} loss={result.losses[hws]:.4f}{marker}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.circuits.export import to_blif, to_verilog
    from repro.multipliers.registry import get_multiplier

    mult = get_multiplier(args.multiplier)
    build = getattr(mult, "build_netlist", None)
    netlist = mult.netlist if hasattr(mult, "netlist") else (
        build() if build else None
    )
    if netlist is None:
        print(f"{args.multiplier} has no structural netlist", file=sys.stderr)
        return 1
    text = to_blif(netlist) if args.format == "blif" else to_verilog(netlist)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.multipliers.registry import get_multiplier
    from repro.obs import trace as obs_trace
    from repro.retrain.checkpoint import load_checkpoint
    from repro.retrain.convert import approximate_model
    from repro.retrain.experiment import ExperimentScale, build_model
    from repro.serve import ServeMetrics, WorkerPool, compile_plan, make_server
    from repro.serve.http import install_shutdown_handlers
    from repro.serve.shard import ShardServer

    _apply_no_cckernel(args)
    # Tracing must be decided BEFORE the pool forks its workers so the
    # children inherit the enabled tracer (and the env var covers any
    # process they fork in turn).  Precedence mirrors REPRO_TELEMETRY:
    # the CLI flag wins, the env var is the ambient default.
    trace_dir = args.trace_dir
    trace_enabled = bool(
        args.trace or trace_dir or obs_trace.env_requested()
    )
    if trace_enabled:
        if trace_dir is None:
            trace_dir = "serve-trace"
        os.environ[obs_trace.TRACE_ENV] = "1"
        obs_trace.enable()
    scale = ExperimentScale(
        image_size=args.image_size,
        n_classes=args.n_classes,
        width_mult=args.width_mult,
        chunk=args.chunk,
    )
    # gradient_method="none": forward-only layers, no gradient LUTs built.
    model = approximate_model(
        build_model(args.arch, scale),
        get_multiplier(args.multiplier),
        gradient_method="none",
        include_linear=args.include_linear,
        chunk=args.chunk,
        per_channel_weights=args.per_channel,
    )
    load_checkpoint(model, args.checkpoint)
    model.eval()

    # Both front ends take the same settings; --sharded forks the workers
    # (one plan compile in the parent, LUTs in shared memory) instead of
    # starting threads, which each need a private engine's scratch.
    metrics = ServeMetrics()
    front_end = dict(
        plan_factory=lambda: compile_plan(
            model, private_engines=not args.sharded,
            arithmetic=args.arithmetic,
        ),
        workers=args.workers,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_size=args.queue_size,
        metrics=metrics,
    )
    if args.sharded:
        pool = ShardServer(trace_dir=trace_dir, **front_end).start()
        mode = f"sharded x{args.workers}"
    else:
        pool = WorkerPool(**front_end).start()
        mode = f"threads x{args.workers}"
    server = make_server(
        pool, metrics, host=args.host, port=args.port,
        model_name=f"{args.arch}/{args.multiplier}",
    )
    # SIGTERM/SIGINT now drain like Ctrl-C instead of dropping in-flight
    # requests: the handler makes serve_forever return, and the ordered
    # teardown below runs for every stop path.
    install_shutdown_handlers(server)
    host, port = server.server_address[:2]
    print(f"serving {args.arch}/{args.multiplier} ({mode}) "
          f"on http://{host}:{port}")
    print("endpoints: POST /predict, GET /healthz, GET /metrics")
    try:
        server.serve_forever()
        print("\nshutting down (draining)")
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        # Drain the pool BEFORE closing the server: handler threads are
        # daemons (never joined by server_close), so in-flight requests
        # must resolve while the socket machinery still exists.
        pool.shutdown(drain=True)
        server.server_close()
        print(metrics.format_report())
        if trace_enabled:
            from repro.obs.export import write_chrome_trace

            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, "trace.json")
            write_chrome_trace(trace_path)
            print(f"trace written to {trace_path} "
                  f"(merge/report: `repro trace {trace_dir}`)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import glob
    import json
    import os

    from repro.obs.dist import (
        latency_report,
        load_trace_file,
        merge_chrome_traces,
    )

    paths: list[str] = []
    for item in args.inputs:
        if os.path.isdir(item):
            paths.extend(sorted(glob.glob(os.path.join(item, "*.json"))))
        else:
            paths.append(item)
    docs = []
    for path in paths:
        try:
            docs.append(load_trace_file(path))
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
    if not docs:
        print("no trace files found", file=sys.stderr)
        return 1
    merged = merge_chrome_traces(docs)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(merged, fh)
        print(f"merged {len(docs)} trace file(s), "
              f"{len(merged['traceEvents'])} events -> {args.output}")
    if args.report:
        print(latency_report(merged))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import profile_retrain, profile_serve

    if args.mode == "retrain":
        report = profile_retrain(
            multiplier=args.multiplier,
            arch=args.arch,
            epochs=args.epochs,
            n_train=args.n_train,
            image_size=args.image_size,
            batch_size=args.batch_size,
            method=args.method,
            seed=args.seed,
            trace_path=args.trace,
            sort=args.sort,
            top=args.top,
        )
    else:
        report = profile_serve(
            multiplier=args.multiplier,
            arch=args.arch,
            requests=args.requests,
            workers=args.workers,
            image_size=args.image_size,
            seed=args.seed,
            trace_path=args.trace,
            sort=args.sort,
            top=args.top,
        )
    print(report.summary())
    print()
    print(report.table)
    if args.table:
        with open(args.table, "w") as fh:
            fh.write(report.summary() + "\n\n" + report.table + "\n")
        print(f"\nhotspot table written to {args.table}")
    if args.min_coverage > 0 and report.coverage < args.min_coverage:
        print(
            f"trace coverage {report.coverage * 100.0:.1f}% is below the "
            f"required {args.min_coverage * 100.0:.1f}%",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AppMult-aware retraining toolkit"
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="print Table I rows")
    p.add_argument("names", nargs="*", help="multiplier names (default: all)")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("retrain", help="run one STE-vs-difference comparison")
    p.add_argument("--multiplier", required=True)
    p.add_argument("--arch", default="lenet",
                   choices=["lenet", "vgg19", "resnet18", "resnet34", "resnet50"])
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--pretrain-epochs", type=int, default=8)
    p.add_argument("--n-train", type=int, default=512)
    p.add_argument("--image-size", type=int, default=16)
    p.add_argument("--width-mult", type=float, default=0.125)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", action="store_true",
                   help="trace the run and print the hottest spans at the end")
    p.add_argument("--profile-top", type=int, default=10,
                   help="how many hotspot rows --profile prints")
    p.add_argument("--telemetry", action="store_true",
                   help="enable training-health probes (gradient quality, "
                        "saturation, LUT coverage) and print a health report")
    p.add_argument("--run-dir", default=None,
                   help="directory for per-run artifacts; implies --telemetry "
                        "and streams health.jsonl there (read it back with "
                        "`repro health <dir>`)")
    p.add_argument("--no-cckernel", action="store_true",
                   help="force the numpy execution backend (skip the JIT C "
                        "kernels; results are bit-identical, only slower)")
    p.set_defaults(func=_cmd_retrain)

    p = sub.add_parser(
        "sweep", help="run a resumable (multiplier, method, seed) grid"
    )
    p.add_argument("--multipliers", nargs="+", required=True)
    p.add_argument("--methods", nargs="+", default=["ste", "difference"])
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--arch", default="lenet",
                   choices=["lenet", "vgg19", "resnet18", "resnet34", "resnet50"])
    p.add_argument("--log", default=None,
                   help="JSONL journal (required for --resume to matter)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: $REPRO_SWEEP_WORKERS or 1)")
    p.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True,
                   help="skip cells already in --log (--no-resume re-runs all)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries per cell on transient failures")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--pretrain-epochs", type=int, default=8)
    p.add_argument("--qat-epochs", type=int, default=2)
    p.add_argument("--n-train", type=int, default=512)
    p.add_argument("--image-size", type=int, default=16)
    p.add_argument("--width-mult", type=float, default=0.125)
    p.add_argument("--batch-size", type=int, default=32)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "health", help="render a training-health report from a run directory"
    )
    p.add_argument("run_dir",
                   help="run directory containing health.jsonl (or a direct "
                        "path to the JSONL file)")
    p.add_argument("--width", type=int, default=60,
                   help="plot width in characters")
    p.set_defaults(func=_cmd_health)

    p = sub.add_parser("hws", help="sweep half window sizes")
    p.add_argument("--multiplier", required=True)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--n-train", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_hws)

    p = sub.add_parser("export", help="dump a multiplier netlist")
    p.add_argument("--multiplier", required=True)
    p.add_argument("--format", choices=["verilog", "blif"], default="verilog")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("serve", help="serve a checkpoint over HTTP")
    p.add_argument("--checkpoint", required=True, help="path to a .npz checkpoint")
    p.add_argument("--multiplier", required=True)
    p.add_argument("--arch", default="lenet",
                   choices=["lenet", "vgg19", "resnet18", "resnet34", "resnet50"])
    p.add_argument("--image-size", type=int, default=16)
    p.add_argument("--n-classes", type=int, default=10)
    p.add_argument("--width-mult", type=float, default=0.125)
    p.add_argument("--include-linear", action="store_true",
                   help="checkpoint was trained with approximate linear layers")
    p.add_argument("--per-channel", action="store_true",
                   help="checkpoint uses per-channel weight quantization")
    p.add_argument("--chunk", type=int, default=1024)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--sharded", action="store_true",
                   help="fork --workers processes sharing LUT tables over "
                        "shared memory (vs threads in one process)")
    p.add_argument("--arithmetic", choices=["float", "int"], default="float",
                   help="plan lowering: float (bit-identical to eval "
                        "forward) or the integer requantized core")
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--max-wait-ms", type=float, default=2.0)
    p.add_argument("--queue-size", type=int, default=64)
    p.add_argument("--no-cckernel", action="store_true",
                   help="force the numpy execution backend (skip the JIT C "
                        "kernels; results are bit-identical, only slower)")
    p.add_argument("--trace", action="store_true",
                   help="enable distributed request tracing before workers "
                        "fork (REPRO_TRACE=1 does the same); serving "
                        "outputs stay bit-identical")
    p.add_argument("--trace-dir", default=None,
                   help="directory for trace artifacts (router trace, "
                        "flight-recorder black boxes); implies --trace "
                        "(default: serve-trace)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace",
        help="merge distributed trace files into one Chrome trace + report",
    )
    p.add_argument("inputs", nargs="+",
                   help="trace files or directories (router trace.json and "
                        "blackbox-*.json dumps; directories glob *.json)")
    p.add_argument("--output", default=None,
                   help="write the merged Chrome trace JSON here")
    p.add_argument("--report", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="print the per-stage request latency report")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "profile", help="trace a canned workload and report hotspots"
    )
    p.add_argument("--mode", choices=["retrain", "serve"], default="retrain")
    p.add_argument("--multiplier", default="mul6u_rm4")
    p.add_argument("--arch", default="lenet",
                   choices=["lenet", "vgg19", "resnet18", "resnet34", "resnet50"])
    p.add_argument("--epochs", type=int, default=1, help="retrain mode only")
    p.add_argument("--n-train", type=int, default=96, help="retrain mode only")
    p.add_argument("--batch-size", type=int, default=32, help="retrain mode only")
    p.add_argument("--method", default="difference",
                   choices=["ste", "difference"], help="retrain mode only")
    p.add_argument("--requests", type=int, default=64, help="serve mode only")
    p.add_argument("--workers", type=int, default=2, help="serve mode only")
    p.add_argument("--image-size", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None,
                   help="write a Chrome-trace JSON (chrome://tracing) here")
    p.add_argument("--table", default=None,
                   help="also write the hotspot table to this file")
    p.add_argument("--sort", choices=["self", "total", "calls"], default="self")
    p.add_argument("--top", type=int, default=15)
    p.add_argument("--min-coverage", type=float, default=0.0,
                   help="exit 1 if root-span coverage falls below this "
                        "fraction (e.g. 0.95 for CI)")
    p.set_defaults(func=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

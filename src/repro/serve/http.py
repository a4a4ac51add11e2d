"""Stdlib HTTP front-end for the serving stack.

Endpoints (JSON in, JSON out, no dependencies beyond ``http.server``):

- ``GET  /healthz`` -- liveness probe with model name and worker count.
- ``GET  /metrics`` -- metrics snapshot; ``?format=text`` returns a
  Prometheus-style text exposition (serving metrics unified with
  :mod:`repro.obs` tracer counters/spans), ``?format=report`` the
  human-readable report, default JSON.
- ``POST /predict`` -- body ``{"inputs": <sample or batch>}``.  A batch is
  split into single-sample requests so the micro-batching scheduler can
  coalesce them with other traffic; a full queue returns **503** with a
  ``Retry-After`` header (backpressure), malformed input returns **400**.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.errors import ServeError, ServerBusyError
from repro.obs.trace import get_tracer
from repro.serve.metrics import ServeMetrics
from repro.serve.pool import WorkerPool

_TRACE = get_tracer()


class ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the serving context for its handlers."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        pool: WorkerPool,
        metrics: ServeMetrics,
        model_name: str = "model",
        input_ndim: int = 3,
        request_timeout: float = 30.0,
    ):
        super().__init__(address, _Handler)
        self.pool = pool
        self.metrics = metrics
        self.model_name = model_name
        self.input_ndim = input_ndim
        self.request_timeout = request_timeout


class _Handler(BaseHTTPRequestHandler):
    server: ServingHTTPServer

    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):  # keep test/CI output clean
        pass

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            payload = {
                "status": "ok",
                "model": self.server.model_name,
                "queue_depth": self.server.pool.batcher.depth,
                # Threads for a WorkerPool, processes for a ShardServer.
                "workers": self.server.pool.alive_workers,
            }
            self._send_json(200, payload)
        elif path == "/metrics":
            if "format=text" in query:
                self._send_text(200, self.server.metrics.prometheus_text())
            elif "format=report" in query:
                self._send_text(200, self.server.metrics.format_report() + "\n")
            else:
                self._send_json(200, self.server.metrics.as_dict())
        else:
            self._send_json(404, {"error": f"no such endpoint: {path}"})

    def do_POST(self) -> None:
        if self.path.partition("?")[0] != "/predict":
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            samples = self._parse_inputs(payload)
        except (ValueError, TypeError, KeyError) as exc:
            self._send_json(400, {"error": f"bad request: {exc}"})
            return
        t0 = time.perf_counter() if _TRACE.enabled else 0.0
        try:
            # One submission per sample: the scheduler coalesces them (and
            # any concurrent traffic) back into micro-batches.
            futures = [self.server.pool.submit(s) for s in samples]
            outputs = [f.result(self.server.request_timeout) for f in futures]
        except ServerBusyError as exc:
            self._send_json(503, {"error": str(exc)}, headers={"Retry-After": "1"})
            return
        except ServeError as exc:
            self._send_json(500, {"error": str(exc)})
            return
        if _TRACE.enabled:
            # HTTP ingress span: the root of each request's span tree.
            # trace_ids link it to the per-request serve.request spans
            # (and through them to the worker-side batch spans).
            _TRACE.record(
                "http.predict", time.perf_counter() - t0, cat="serve",
                args={
                    "n": len(futures),
                    "trace_ids": [
                        getattr(f, "trace_id", None) for f in futures
                    ],
                },
            )
        self._send_json(200, {
            "model": self.server.model_name,
            "outputs": [out.tolist() for out in outputs],
            "predictions": [int(np.argmax(out)) for out in outputs],
        })

    def _parse_inputs(self, payload: dict) -> list[np.ndarray]:
        if "inputs" not in payload:
            raise KeyError('missing "inputs" field')
        arr = np.asarray(payload["inputs"], dtype=np.float64)
        ndim = self.server.input_ndim
        if arr.ndim == ndim:
            return [arr]
        if arr.ndim == ndim + 1:
            if arr.shape[0] == 0:
                raise ValueError("empty batch")
            return list(arr)
        raise ValueError(
            f"expected a {ndim}-d sample or {ndim + 1}-d batch, "
            f"got shape {arr.shape}"
        )


def make_server(
    pool: WorkerPool,
    metrics: ServeMetrics,
    host: str = "127.0.0.1",
    port: int = 0,
    model_name: str = "model",
    input_ndim: int = 3,
    request_timeout: float = 30.0,
) -> ServingHTTPServer:
    """Build (but do not start) the HTTP server; ``port=0`` picks a free one."""
    return ServingHTTPServer(
        (host, port), pool, metrics,
        model_name=model_name,
        input_ndim=input_ndim,
        request_timeout=request_timeout,
    )


def install_shutdown_handlers(
    server: ServingHTTPServer,
    signals: tuple = (signal.SIGTERM, signal.SIGINT),
) -> dict:
    """Route SIGTERM/SIGINT into a graceful stop of ``server``.

    Historically only the KeyboardInterrupt path of ``repro serve``
    drained the scheduler; a SIGTERM (the signal every process manager
    actually sends) killed the process mid-request.  The installed
    handler asks ``serve_forever`` to return -- from a helper thread,
    because :meth:`socketserver.BaseServer.shutdown` blocks until the
    serve loop exits and must never run inside the signal frame of the
    thread running that loop.  The caller's normal post-``serve_forever``
    path (pool drain, ``server_close``) then runs exactly as it does for
    Ctrl-C.  A second signal raises :class:`KeyboardInterrupt` for an
    immediate (non-draining) exit.

    Returns ``{signum: previous_handler}`` so tests (or embedders) can
    restore the prior disposition.
    """
    fired = {"count": 0}

    def handler(signum, frame):
        fired["count"] += 1
        if fired["count"] > 1:
            raise KeyboardInterrupt
        threading.Thread(
            target=server.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()

    previous = {}
    for signum in signals:
        previous[signum] = signal.signal(signum, handler)
    return previous

"""Per-layer attribution for the traced benchmark run.

The program's own tracer is off by default and records spans inside the
program, so the benchmark measures layers from outside instead: it
replaces public functions of each layer (``execcore.product_sums``,
``Tensor.backward``, ``Adam.step``, the plan's ops ...) with timing
wrappers for the duration of the traced window and restores them after.

Wrapped calls may nest (``Tensor.backward`` calls ``execcore.backward_grads``
and ``functional.col2im``), so every wrapper keeps a per-thread stack and
records both total and self time: a layer's self time is its duration
minus the part covered by wrapped calls inside it.  Shares computed from
self times of distinct layers never overlap.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class Recorder:
    """Timing wrappers around public functions, plus what they recorded.

    ``stats[name]`` holds ``[calls, total_s, self_s]``; ``shapes`` holds
    ``[calls, lookups, self_s]`` per ``(name, M, K, C, backend)`` for the
    LUT-GEMM entry points; ``events[name]`` holds ``(start, duration,
    size)`` per call for wrappers asked to keep them.
    """

    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.shapes: dict[tuple, list] = defaultdict(lambda: [0, 0, 0.0])
        self.events: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, gemm=None, size=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper named ``name``.

        ``gemm=(shape_fn, lookups_per_mkc, counter)`` also records the
        ``(M, K, C)`` shape returned by ``shape_fn(args)`` and which backend
        served the call: ``"c"`` when the engine's ``counter`` attribute
        (``ckernel_forward_calls`` ...) grew during the call, else
        ``"numpy"``.  ``size(args)`` keeps one event per call.
        """
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            engine = args[0] if gemm is not None else None
            before = getattr(engine, gemm[2]) if gemm is not None else 0
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                own = dur - frame[0]
                with self._lock:
                    st = self.stats[name]
                    st[0] += 1
                    st[1] += dur
                    st[2] += own
                    if gemm is not None:
                        m, k, c = gemm[0](args)
                        backend = (
                            "c" if getattr(engine, gemm[2]) > before
                            else "numpy"
                        )
                        row = self.shapes[(name, m, k, c, backend)]
                        row[0] += 1
                        row[1] += gemm[1] * m * k * c
                        row[2] += own
                    if size is not None:
                        self.events[name].append((t0, dur, size(args)))

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def lookups(self, name: str) -> int:
        return sum(v[1] for key, v in self.shapes.items() if key[0] == name)


def _mkc_operands(args) -> tuple[int, int, int]:
    """``(engine, wq (M, K), xq (K, C), ...)`` -> ``(M, K, C)``."""
    m, k = args[1].shape
    return m, k, args[2].shape[1]


def _mkc_serve(args) -> tuple[int, int, int]:
    """``serve_fused(engine, wq, wrow, xq, ...)`` -> ``(M, K, C)``."""
    m, k = args[1].shape
    return m, k, args[3].shape[1]


#: Plan op kinds reported on their own; every other kind counts as "other".
PLAN_OP_KINDS = ("fused_int", "lutgemm_int", "block", "float")


def install_program(rec: Recorder) -> None:
    """Wrap the program-wide layer entry points used by every workload."""
    from repro.autograd.tensor import Tensor
    from repro.core import execcore, lutkernel
    from repro.nn import functional
    from repro.optim.adam import Adam

    rec.wrap(execcore, "product_sums", "execcore.product_sums",
             gemm=(_mkc_operands, 1, "ckernel_forward_calls"))
    # The backward gathers from two gradient tables per (m, k, c).
    rec.wrap(execcore, "backward_grads", "execcore.backward_grads",
             gemm=(_mkc_operands, 2, "ckernel_backward_calls"))
    rec.wrap(execcore, "serve_fused", "execcore.serve_fused",
             gemm=(_mkc_serve, 1, "ckernel_forward_calls"))
    rec.wrap(lutkernel, "im2col_serve", "lutkernel.im2col_serve")
    rec.wrap(functional, "im2col", "functional.im2col")
    rec.wrap(functional, "col2im", "functional.col2im")
    rec.wrap(Tensor, "backward", "autograd.backward")
    rec.wrap(Adam, "step", "adam.step")


def install_plan(rec: Recorder, plan) -> None:
    """Wrap one compiled plan's ``run`` and each of its top-level ops."""
    rec.wrap(plan, "run", "plan.run", size=lambda args: len(args[0]))
    for op in plan.ops:
        kind = op.kind if op.kind in PLAN_OP_KINDS else "other"
        rec.wrap(op, "fn", f"plan.op.{kind}")

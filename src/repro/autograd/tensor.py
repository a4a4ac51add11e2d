"""Tape-based reverse-mode autodiff tensor.

Each differentiable operation returns a new :class:`Tensor` holding its
parents and a backward closure that maps the output gradient to parent
gradients.  :meth:`Tensor.backward` runs a topological sweep over the tape.

Only float64/float32 data participates in gradients; integer tensors are
allowed but are treated as constants.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

from repro.errors import ReproError
from repro.obs.trace import get_tracer

_TRACE = get_tracer()

_GRAD_ENABLED = True

#: label cache for backward closures, keyed by the closure's code object
#: (one per ``def backward`` site, alive for the module's lifetime).
_BACKWARD_LABELS: dict[int, str] = {}


def _backward_label(fn: Callable) -> str:
    """Span name for a backward closure, e.g. ``autograd.matmul.backward``."""
    key = id(getattr(fn, "__code__", fn))
    label = _BACKWARD_LABELS.get(key)
    if label is None:
        qual = getattr(fn, "__qualname__", "op")
        parts = qual.split(".")
        # "Tensor.__matmul__.<locals>.backward" -> "matmul"
        owner = parts[-3] if len(parts) >= 3 else qual
        label = f"autograd.{owner.strip('_')}.backward"
        _BACKWARD_LABELS[key] = label
    return label


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (for eval loops)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """True when operations record the autodiff tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus an optional autodiff tape node.

    Attributes:
        data: The underlying :class:`numpy.ndarray`.
        grad: Accumulated float64 gradient (same shape as ``data``) or
            ``None``.  :meth:`backward` fills it on leaves only -- tensors
            that require grad but have no backward closure, such as
            parameters and inputs -- as PyTorch does; interior nodes pass
            their gradient on and keep ``None``.
        requires_grad: Whether gradients flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], Iterable[np.ndarray | None]] | None = None,
    ):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the raw ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad})"

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], Iterable[np.ndarray | None]],
    ) -> "Tensor":
        """Create an op output wired to ``parents`` via ``backward``.

        ``backward(grad_out)`` must return one gradient (or ``None``) per
        parent.  This is the public hook custom layers use.
        """
        req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=req, parents=parents, backward=backward)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(g):
            return (
                _unbroadcast(g, self.shape),
                _unbroadcast(g, other.shape),
            )

        return Tensor.make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor.make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(g):
            return (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            )

        return Tensor.make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(g):
            return (
                _unbroadcast(g / other.data, self.shape),
                _unbroadcast(-g * self.data / (other.data**2), other.shape),
            )

        return Tensor.make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise ReproError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g):
            return (g * exponent * self.data ** (exponent - 1),)

        return Tensor.make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(g):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # dot product
                return (g * b, g * a)
            ga = g @ np.swapaxes(b, -1, -2) if b.ndim > 1 else np.outer(g, b)
            gb = np.swapaxes(a, -1, -2) @ g if a.ndim > 1 else np.outer(a, g)
            return (
                _unbroadcast(ga, self.shape),
                _unbroadcast(gb, other.shape),
            )

        return Tensor.make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        return Tensor.make(
            self.data * mask, (self,), lambda g: (g * mask,)
        )

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return Tensor.make(out_data, (self,), lambda g: (g * out_data,))

    def log(self) -> "Tensor":
        return Tensor.make(
            np.log(self.data), (self,), lambda g: (g / self.data,)
        )

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return Tensor.make(out_data, (self,), lambda g: (g / (2 * out_data),))

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return Tensor.make(
            out_data, (self,), lambda g: (g * (1 - out_data**2),)
        )

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor.make(
            out_data, (self,), lambda g: (g * out_data * (1 - out_data),)
        )

    def clip(self, lo: float, hi: float) -> "Tensor":
        """Clamp values; gradient passes only inside the range (QAT-style)."""
        mask = (self.data >= lo) & (self.data <= hi)
        return Tensor.make(
            np.clip(self.data, lo, hi), (self,), lambda g: (g * mask,)
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor.make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else np.prod(
            [self.shape[a % self.ndim] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            expanded = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    expanded = np.expand_dims(expanded, ax)
                    g = np.expand_dims(g, ax)
            mask = self.data == expanded
            # Split gradient between ties, matching subgradient convention.
            counts = mask.sum(
                axis=axis, keepdims=True
            ) if axis is not None else mask.sum()
            return (mask * g / counts,)

        return Tensor.make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        src = self.shape
        return Tensor.make(out_data, (self,), lambda g: (g.reshape(src),))

    def flatten_from(self, start: int = 1) -> "Tensor":
        """Flatten trailing dimensions starting at ``start`` (batch-safe)."""
        lead = self.shape[:start]
        return self.reshape(lead + (-1,))

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        return Tensor.make(
            self.data.transpose(axes),
            (self,),
            lambda g: (g.transpose(inverse),),
        )

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(g):
            full = np.zeros_like(self.data, dtype=g.dtype)
            np.add.at(full, index, g)
            return (full,)

        return Tensor.make(out_data, (self,), backward)

    def pad2d(self, pad: int) -> "Tensor":
        """Zero-pad the last two dimensions symmetrically by ``pad``."""
        if pad == 0:
            return self
        width = [(0, 0)] * (self.ndim - 2) + [(pad, pad), (pad, pad)]
        out_data = np.pad(self.data, width)

        def backward(g):
            sl = [slice(None)] * (self.ndim - 2) + [
                slice(pad, -pad),
                slice(pad, -pad),
            ]
            return (g[tuple(sl)],)

        return Tensor.make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        Gradients accumulate into ``.grad`` of the leaves reached (nodes
        without a backward closure); interior nodes keep ``None``.

        Args:
            grad: Seed gradient; defaults to ones (must be scalar output
                for the default to make sense).
        """
        if not self.requires_grad:
            raise ReproError("backward() on a tensor without requires_grad")
        if grad is None:
            if self.size != 1:
                raise ReproError("backward() without grad needs scalar output")
            grad = np.ones_like(self.data, dtype=np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in visited:
                continue
            if expanded:
                visited.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # A leaf: the only kind of node that keeps ``.grad``.
                if node.grad is None:
                    node.grad = np.zeros_like(node.data, dtype=np.float64)
                # In-place accumulate: node.grad is float64 and owned by
                # the tape (allocated above or by a prior sweep), so no
                # caller's array is mutated; avoids one full-size
                # temporary per leaf.
                np.add(node.grad, g, out=node.grad)
                continue
            if _TRACE.enabled:
                with _TRACE.span(_backward_label(node._backward),
                                 cat="autograd"):
                    parent_grads = node._backward(g)
            else:
                parent_grads = node._backward(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                if id(p) in grads:
                    grads[id(p)] = grads[id(p)] + pg
                else:
                    grads[id(p)] = pg

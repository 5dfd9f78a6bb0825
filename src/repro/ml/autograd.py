"""Reverse-mode automatic differentiation over NumPy arrays.

Design: a :class:`Tensor` wraps a float32/float64 ndarray; every operation
records its parents and a backward closure.  ``Tensor.backward()`` runs the
closures in reverse topological order, accumulating into ``.grad``.

Broadcasting follows NumPy semantics; backward passes reduce gradients back
to the parent shapes (``_unbroadcast``).  Only the ops the PerfVec models
need are implemented, each kept as a single fused NumPy expression per
direction (no Python loops inside ops).  Recurrence is the one exception:
:func:`repro.ml.recurrent.lstm_layer` and :func:`~repro.ml.recurrent.gru_layer`
are single nodes whose forward and backward run the time loop over a whole
chunk, so a training step builds the same few nodes at any chunk length.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterable

import numpy as np

from repro.ml.activations import stable_sigmoid


class _GradMode(threading.local):
    """Graph construction on or off, per thread: one thread's
    :func:`no_grad` block never changes what another thread records."""

    enabled = True


_mode = _GradMode()


def grad_enabled() -> bool:
    """Whether graph construction is on in the calling thread (False
    inside :func:`no_grad`)."""
    return _mode.enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph construction in the calling thread (inference /
    target preparation)."""
    previous = _mode.enabled
    _mode.enabled = False
    try:
        yield
    finally:
        _mode.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum out prepended axes
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum axes that were broadcast from size 1
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("cannot wrap a Tensor in a Tensor")
        self.data = np.asarray(data, dtype=np.float32 if not isinstance(
            data, np.ndarray) or data.dtype.kind != "f" else data.dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _mode.enabled
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

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

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    @staticmethod
    def _result(data, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        needs = _mode.enabled and any(p.requires_grad for p in parents)
        out.requires_grad = needs
        out._parents = tuple(p for p in parents if p.requires_grad) if needs else ()
        out._backward = backward if needs else None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Always own the storage: the incoming array may be (or alias)
            # another node's gradient, and later += would corrupt it.
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (default seed: ones)."""
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
        # topological order via iterative DFS
        order: list[Tensor] = []
        visited: set[int] = set()
        stack_ = [(self, False)]
        while stack_:
            node, processed = stack_.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack_.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack_.append((parent, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # free interior graph references eagerly
                if node is not self:
                    node._backward = None
                    node._parents = ()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float32))

    def __add__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            self._accumulate(-grad)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data - other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    def __rsub__(self, other):
        return Tensor._coerce(other) - self

    def __mul__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * out_data / other.data, other.shape)
                )

        return Tensor._result(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return Tensor._coerce(other) / self

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents supported")
        out_data = self.data ** exponent

        def backward(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._result(out_data, (self,), backward)

    def __matmul__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._result(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            self._accumulate(grad * (1.0 - out_data * out_data))

        return Tensor._result(out_data, (self,), backward)

    def sigmoid(self):
        # numerically stable piecewise formulation (shared gate math)
        out_data = stable_sigmoid(self.data)

        def backward(grad):
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._result(out_data, (self,), backward)

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def backward(grad):
            self._accumulate(grad * (self.data > 0.0))

        return Tensor._result(out_data, (self,), backward)

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            self._accumulate(grad * out_data)

        return Tensor._result(out_data, (self,), backward)

    def log(self):
        out_data = np.log(self.data)

        def backward(grad):
            self._accumulate(grad / self.data)

        return Tensor._result(out_data, (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(grad):
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._result(out_data, (self,), backward)

    def softmax(self, axis: int = -1):
        """Numerically stable softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward(grad):
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot))

        return Tensor._result(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions / shape
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._result(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            self._accumulate(grad.reshape(original))

        return Tensor._result(out_data, (self,), backward)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad):
            self._accumulate(grad.transpose(inverse))

        return Tensor._result(out_data, (self,), backward)

    def __getitem__(self, key):
        out_data = self.data[key]

        def backward(grad):
            full = np.zeros_like(self.data)
            # np.add.at accumulates on repeated indices (embedding lookups
            # index the same row many times; plain assignment would drop
            # all but the last contribution)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._result(out_data, (self,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, end)
                t._accumulate(grad[tuple(index)])

    return Tensor._result(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        parts = np.split(grad, len(tensors), axis=axis)
        for t, g in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(np.squeeze(g, axis=axis))

    return Tensor._result(out_data, tuple(tensors), backward)


def mse_loss(prediction: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error (the paper's training loss)."""
    target_data = target.data if isinstance(target, Tensor) else np.asarray(target)
    diff = prediction - Tensor(target_data.astype(prediction.data.dtype))
    return (diff * diff).mean()

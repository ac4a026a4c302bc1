"""Reverse-mode autograd tensor over numpy arrays.

Every differentiable operation builds a node in an implicit DAG; calling
:meth:`Tensor.backward` on a scalar loss topologically sorts the graph and
accumulates gradients into every tensor with ``requires_grad=True``.
Broadcasting is supported everywhere via gradient "unbroadcasting".
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from repro.errors import NNError


class _GradMode(threading.local):
    """Per-thread grad mode; the class attribute is every thread's
    starting value, so a new thread starts with grad on."""

    enabled = True


_GRAD_MODE = _GradMode()


@contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode) on
    the calling thread only."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def grad_enabled() -> bool:
    return _GRAD_MODE.enabled


class Tensor:
    """An ndarray with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # keep numpy from hijacking operators

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _GRAD_MODE.enabled
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward

    # -- basic info --------------------------------------------------------
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
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- autograd ------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (defaults to d(self)/d(self)=1)."""
        if not self.requires_grad:
            raise NNError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise NNError("backward() without grad only valid for scalars")
            grad = np.ones_like(self.data)

        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

        visit(self)
        for node in order:
            node.grad = np.zeros_like(node.data) if node.grad is None else node.grad
        self.grad = self.grad + grad
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        out = Tensor(
            self.data + other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def backward(grad: np.ndarray) -> None:
            _accumulate(self, grad)
            _accumulate(other, grad)

        out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        out = Tensor(
            self.data * other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def backward(grad: np.ndarray) -> None:
            _accumulate(self, grad * other.data)
            _accumulate(other, grad * self.data)

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-_ensure_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return _ensure_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        return self * _ensure_tensor(other).pow(-1.0)

    def __rtruediv__(self, other) -> "Tensor":
        return _ensure_tensor(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        """Elementwise power with a constant exponent."""
        out = Tensor(
            self.data**exponent,
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def backward(grad: np.ndarray) -> None:
            _accumulate(self, grad * exponent * self.data ** (exponent - 1.0))

        out._backward = backward
        return out

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(exponent)

    def __matmul__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        out = Tensor(
            self.data @ other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                _accumulate(self, grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                _accumulate(other, np.swapaxes(self.data, -1, -2) @ grad)

        out._backward = backward
        return out

    # -- elementwise functions ---------------------------------------------
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = Tensor(value, requires_grad=self.requires_grad, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            _accumulate(self, grad * value)

        out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = Tensor(
            np.log(self.data), requires_grad=self.requires_grad, _parents=(self,)
        )

        def backward(grad: np.ndarray) -> None:
            _accumulate(self, grad / self.data)

        out._backward = backward
        return out

    # -- reductions ------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor(
            self.data.sum(axis=axis, keepdims=keepdims),
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
            _accumulate(self, np.broadcast_to(expanded, self.data.shape))

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = (
            self.data.size
            if axis is None
            else np.prod([self.data.shape[a] for a in np.atleast_1d(axis)])
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # -- shape manipulation ---------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(
            self.data.reshape(shape),
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def backward(grad: np.ndarray) -> None:
            _accumulate(self, grad.reshape(self.data.shape))

        out._backward = backward
        return out

    def transpose(self, *axes) -> "Tensor":
        axes_t = axes if axes else None
        out = Tensor(
            self.data.transpose(axes_t),
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def backward(grad: np.ndarray) -> None:
            if axes_t is None:
                _accumulate(self, grad.transpose())
            else:
                _accumulate(self, grad.transpose(np.argsort(axes_t)))

        out._backward = backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out = Tensor(
            self.data[key], requires_grad=self.requires_grad, _parents=(self,)
        )

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                _accumulate(self, full)

        out._backward = backward
        return out


def _ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    """Add ``grad`` into ``tensor.grad``, undoing numpy broadcasting."""
    if not tensor.requires_grad:
        return
    grad = _unbroadcast(grad, tensor.data.shape)
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.data)
    tensor.grad += grad


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` down to ``shape`` by summing broadcast axes."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Public coercion helper."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def tensors_require_grad(tensors: Iterable[Tensor]) -> bool:
    return any(t.requires_grad for t in tensors)

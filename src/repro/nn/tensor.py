"""Reverse-mode autograd tensor over numpy arrays.

Every differentiable operation builds a node in an implicit DAG; calling
:meth:`Tensor.backward` on a scalar loss sorts the graph with an iterative
post-order walk and runs each node's backward closure in reverse.  Only
the root is seeded: a node's gradient is created by the first closure
that writes to it (a C-ordered array of its own), later writes add in
place, and a node nothing wrote to is skipped.  Layers fuse whole
computations into one node each (``functional.linear``,
``functional.elman``, ``functional.conv2d``), so a training step builds a
few dozen nodes.  Broadcasting is supported everywhere via gradient
"unbroadcasting".
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable

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

        # Iterative post-order: parents are pushed reversed, so nodes come
        # out in the order a recursive walk over ``_parents`` gives.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif id(node) not in seen and node.requires_grad:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((parent, False) for parent in reversed(node._parents))
        _accumulate(self, grad)
        for node in reversed(order):
            if node.grad is not None and node._backward is not None:
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
            _accumulate(self, grad * other.data, owned=True)
            _accumulate(other, grad * self.data, owned=True)

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
            _accumulate(
                self, grad * exponent * self.data ** (exponent - 1.0), owned=True
            )

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
                _accumulate(
                    self, grad @ np.swapaxes(other.data, -1, -2), owned=True
                )
            if other.requires_grad:
                _accumulate(
                    other, np.swapaxes(self.data, -1, -2) @ grad, owned=True
                )

        out._backward = backward
        return out

    # -- elementwise functions ---------------------------------------------
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = Tensor(value, requires_grad=self.requires_grad, _parents=(self,))

        def backward(grad: np.ndarray) -> None:
            _accumulate(self, grad * value, owned=True)

        out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = Tensor(
            np.log(self.data), requires_grad=self.requires_grad, _parents=(self,)
        )

        def backward(grad: np.ndarray) -> None:
            _accumulate(self, grad / self.data, owned=True)

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
                _accumulate(self, full, owned=True)

        out._backward = backward
        return out


def _ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _accumulate(tensor: Tensor, grad: np.ndarray, owned: bool = False) -> None:
    """Add ``grad`` into ``tensor.grad``, undoing numpy broadcasting.

    The first write keeps a C-ordered array of the tensor's own: ``grad``
    itself when the caller ``owned`` it (made it for this call and keeps
    no other reference), else a copy.  So no two gradients share memory
    and every gradient reduces in the same (row-major) order.
    """
    if not tensor.requires_grad:
        return
    grad = _unbroadcast(grad, tensor.data.shape)
    if tensor.grad is not None:
        tensor.grad += grad
    elif owned and grad.flags.c_contiguous and grad.shape == tensor.data.shape:
        tensor.grad = grad
    else:
        tensor.grad = np.array(
            np.broadcast_to(grad, tensor.data.shape), dtype=np.float64, order="C"
        )


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

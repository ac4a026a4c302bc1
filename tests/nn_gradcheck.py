"""Finite-difference gradient checking helper shared by nn tests."""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor


def numeric_gradient(fn, value: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(array)`` at ``value``."""
    grad = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        hi = fn(value)
        flat[i] = original - eps
        lo = fn(value)
        flat[i] = original
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(
    build_loss, value: np.ndarray, atol=1e-6, rtol=1e-4, param=None
) -> None:
    """Assert autograd gradient matches finite differences.

    ``build_loss(tensor) -> Tensor`` must return a scalar loss given a leaf
    tensor built from ``value``.  The check is on that leaf's gradient, or,
    given ``param`` (a parameter the loss reads), on ``param``'s gradient:
    the finite differences then perturb ``param.data`` in place.
    """
    leaf = Tensor(value.copy(), requires_grad=True)
    target = leaf if param is None else param
    target.grad = None
    loss = build_loss(leaf)
    loss.backward()
    analytic = target.grad.copy()

    if param is None:
        def scalar_fn(arr: np.ndarray) -> float:
            return float(build_loss(Tensor(arr)).data)

        numeric = numeric_gradient(scalar_fn, value.copy())
    else:
        def scalar_fn(arr: np.ndarray) -> float:
            return float(build_loss(Tensor(value)).data)

        numeric = numeric_gradient(scalar_fn, param.data)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)

"""Optimizers: SGD (the paper's choice, lr 3e-4) and Adam.

Each optimizer allocates its state (Adam moments, SGD velocity) and a
scratch buffer once; ``step`` then runs the textbook elementwise update
in place, one ``_BLOCK`` of a parameter at a time, and allocates
nothing.  Parameters stay separate arrays rather than views into one
flat buffer: two optimizers may drive one parameter set, and
``Module.load_state_dict`` rebinds ``param.data``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NNError
from repro.nn.module import Parameter

_BLOCK = 16384
"""Elements per in-place update block (the scratch blocks stay in cache)."""


class Optimizer:
    def __init__(self, parameters, lr: float) -> None:
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise NNError("optimizer received no parameters")
        if lr <= 0:
            raise NNError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        largest = max(p.size for p in self.parameters)
        self._scratch = np.empty(max(largest, 2 * _BLOCK))

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most max_norm.

        Each gradient's squares are summed in row-major order.
        """
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                squares = self._scratch[: param.grad.size]
                np.square(param.grad, out=squares.reshape(param.grad.shape))
                total += float(squares.sum())
        norm = float(np.sqrt(total))
        if norm > max_norm > 0:
            scale = max_norm / (norm + 1e-12)
            for param in self.parameters:
                if param.grad is not None:
                    param.grad *= scale
        return norm

    def _updates(self, *states: list[np.ndarray]):
        """Yield ``(data, grad, *state, scratch)`` flat blocks of every
        parameter that has a gradient; writes to ``data`` land in
        ``param.data``."""
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            data = param.data.reshape(-1, copy=False)
            grad = param.grad.reshape(-1)
            for start in range(0, data.size, _BLOCK):
                block = slice(start, start + _BLOCK)
                piece = data[block]
                yield (
                    piece, grad[block], *(s[index][block] for s in states),
                    self._scratch[: piece.size],
                )


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, parameters, lr: float = 3e-4, momentum: float = 0.0) -> None:
        super().__init__(parameters, lr)
        if not 0 <= momentum < 1:
            raise NNError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros(p.size) for p in self.parameters]

    def step(self) -> None:
        if not self.momentum:
            for data, grad, step in self._updates():
                np.multiply(grad, self.lr, out=step)
                data -= step
            return
        for data, grad, velocity, step in self._updates(self._velocity):
            velocity *= self.momentum
            velocity += grad
            np.multiply(velocity, self.lr, out=step)
            data -= step


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros(p.size) for p in self.parameters]
        self._v = [np.zeros(p.size) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        correction1 = 1 - self.beta1**self._t
        correction2 = 1 - self.beta2**self._t
        denom = self._scratch[_BLOCK : 2 * _BLOCK]
        for data, grad, m, v, step in self._updates(self._m, self._v):
            rms = denom[: data.size]
            m *= self.beta1
            np.multiply(grad, 1 - self.beta1, out=step)
            m += step
            v *= self.beta2
            np.square(grad, out=step)
            step *= 1 - self.beta2
            v += step
            np.divide(m, correction1, out=step)  # m_hat
            step *= self.lr
            np.divide(v, correction2, out=rms)  # v_hat
            np.sqrt(rms, out=rms)
            rms += self.eps
            step /= rms
            data -= step

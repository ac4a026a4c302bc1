"""Op-by-op references for the fused nn layers and the in-place optimizers.

Each layer is built from plain :class:`Tensor` ops, one graph node per
matmul, transpose, add and activation, and the RNN one set of them per
layer per time step.  The optimizers are the textbook Adam and SGD
updates, allocating as they go.  The fused code must reproduce these
bit for bit, which pins its summation order on any host without
golden files.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.tensor import Tensor


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    out = x @ weight.T
    return out if bias is None else out + bias


def sage(layer, x: Tensor, adjacency: np.ndarray) -> Tensor:
    aggregated = Tensor(adjacency) @ x
    combined = F.concat([x, aggregated], axis=-1)
    return F.relu(linear(combined, layer.weight, layer.bias))


def elman_steps(rnn, steps: list[Tensor]) -> list[Tensor]:
    """Top-layer states over ``steps`` (``(rows, input)`` tensors)."""
    state = [Tensor(np.zeros((1, rnn.hidden_size)))] * rnn.num_layers
    outputs = []
    for x in steps:
        for layer in range(rnn.num_layers):
            u, w, b = (getattr(rnn, f"{name}{layer}") for name in "uwb")
            x = F.tanh(x @ u.T + state[layer] @ w.T + b)
            state[layer] = x
        outputs.append(x)
    return outputs


def elman(rnn, sequence: Tensor) -> Tensor:
    steps = [sequence[t : t + 1] for t in range(sequence.shape[0])]
    return F.concat(elman_steps(rnn, steps), axis=0)


def elman_batch(rnn, sequences: Tensor) -> Tensor:
    steps = [sequences[t] for t in range(sequences.shape[0])]
    return F.stack(elman_steps(rnn, steps), axis=0)


def encode(policy, x: Tensor) -> Tensor:
    for layer in policy.encoder.layers:
        x = linear(x, layer.weight, layer.bias) if isinstance(layer, Linear) else layer(x)
    return x


def policy_forward(policy, features, adjacency, order) -> Tensor:
    """One state ``(n, c, s, s)`` through the reference layers."""
    embeddings = encode(policy, Tensor(features))
    for index in range(policy.config.sage_layers):
        embeddings = sage(getattr(policy, f"sage{index}"), embeddings, adjacency)
    hidden = elman(policy.rnn, embeddings[np.asarray(order)])
    hidden = hidden[np.argsort(np.asarray(order))]
    return linear(hidden, policy.head.weight, policy.head.bias)


def policy_forward_population(policy, features, adjacency, order) -> Tensor:
    """``CamoPolicy.forward`` on the reference layers."""
    population, n = features.shape[:2]
    flat = features.reshape(population * n, *features.shape[2:])
    embeddings = encode(policy, Tensor(flat)).reshape(population, n, -1)
    for index in range(policy.config.sage_layers):
        embeddings = sage(getattr(policy, f"sage{index}"), embeddings, adjacency)
    order = np.asarray(order)
    hidden = elman_batch(policy.rnn, embeddings[:, order].transpose(1, 0, 2))
    hidden = hidden.transpose(1, 0, 2)[:, np.argsort(order)]
    return linear(hidden, policy.head.weight, policy.head.bias)


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    norm = float(np.sqrt(sum(float((g**2).sum()) for g in grads)))
    if norm > max_norm > 0:
        return [g * (max_norm / (norm + 1e-12)) for g in grads]
    return grads


class Adam:
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.params = [p.copy() for p in params]
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        for i, g in enumerate(grads):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g**2
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            self.params[i] = self.params[i] - self.lr * m_hat / (
                np.sqrt(v_hat) + self.eps
            )


class SGD:
    def __init__(self, params, lr, momentum=0.0):
        self.params = [p.copy() for p in params]
        self.lr, self.momentum = lr, momentum
        self.velocity = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        for i, g in enumerate(grads):
            self.velocity[i] = self.momentum * self.velocity[i] + g
            self.params[i] = self.params[i] - self.lr * self.velocity[i]

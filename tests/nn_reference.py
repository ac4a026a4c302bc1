"""Op-by-op references for the fused nn layers and the in-place optimizers.

Each layer is built from plain :class:`Tensor` ops, one graph node per
matmul, transpose, add and activation, and the RNN one set of them per
layer per time step.  The convolution is the sliding-window im2col with
a zero-padded copy forward and a strided add per kernel tap backward,
and ReLU multiplies by its ``x > 0`` mask.  The optimizers are the
textbook Adam and SGD updates, allocating as they go.  The fused code
must reproduce these bit for bit, which pins its summation order on any
host without golden files.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear, ReLU
from repro.nn.tensor import Tensor, _accumulate


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    out = x @ weight.T
    return out if bias is None else out + bias


def relu(x: Tensor) -> Tensor:
    return x * Tensor((x.data > 0).astype(np.float64))


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """im2col through ``sliding_window_view`` of a zero-padded copy; the
    input gradient adds each ``(i, j)`` tap's strided slice in turn."""
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1

    padded = x.data
    if padding:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
        padded[:, :, padding : padding + h, padding : padding + w] = x.data
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]  # (N, C, OH, OW, KH, KW)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)

    w_flat = weight.data.reshape(f, c * kh * kw)
    out_data = np.matmul(w_flat, cols).reshape(n, f, oh, ow)
    if bias is not None:
        out_data += bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    requires = any(t.requires_grad for t in parents)
    out = Tensor(out_data, requires_grad=requires, _parents=parents)

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(n, f, oh * ow)
        if weight.requires_grad:
            k = c * kh * kw
            cols_t = cols.transpose(0, 2, 1)
            if n > 1:
                cols_t = np.empty((n, oh * ow, k))
                for k0 in range(0, k, 8):
                    cols_t[:, :, k0 : k0 + 8] = cols[:, k0 : k0 + 8].transpose(
                        0, 2, 1
                    )
            grad_w = np.dot(
                grad_flat.transpose(1, 0, 2).reshape(f, n * oh * ow),
                cols_t.reshape(n * oh * ow, k),
            ).reshape(weight.shape)
            _accumulate(weight, grad_w, owned=True)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, grad.sum(axis=(0, 2, 3)), owned=True)
        if x.requires_grad:
            grad_cols = np.matmul(w_flat.T, grad_flat)
            grad_cols = grad_cols.reshape(n, c, kh, kw, oh, ow)
            grad_padded = np.zeros(
                (n, c, h + 2 * padding, w + 2 * padding), dtype=np.float64
            )
            for i in range(kh):
                for j in range(kw):
                    grad_padded[
                        :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
                    ] += grad_cols[:, :, i, j, :, :]
            if padding:
                grad_padded = grad_padded[
                    :, :, padding : padding + h, padding : padding + w
                ]
            _accumulate(x, grad_padded, owned=True)

    out._backward = backward
    return out


def sage(layer, x: Tensor, adjacency: np.ndarray) -> Tensor:
    aggregated = Tensor(adjacency) @ x
    combined = F.concat([x, aggregated], axis=-1)
    return relu(linear(combined, layer.weight, layer.bias))


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
        if isinstance(layer, Linear):
            x = linear(x, layer.weight, layer.bias)
        elif isinstance(layer, Conv2d):
            x = conv2d(x, layer.weight, layer.bias, layer.stride, layer.padding)
        elif isinstance(layer, ReLU):
            x = relu(x)
        else:
            x = layer(x)
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

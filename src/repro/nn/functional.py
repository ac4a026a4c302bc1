"""Differentiable operations beyond basic tensor arithmetic."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import NNError
from repro.nn.tensor import Tensor, _accumulate, grad_enabled


def relu(x: Tensor) -> Tensor:
    """``max(x, 0)``; the ``x > 0`` mask of the backward pass is built
    only when a graph is recorded."""
    out = Tensor(np.maximum(x.data, 0.0), requires_grad=x.requires_grad, _parents=(x,))
    if not out.requires_grad:
        return out
    mask = x.data > 0

    def backward(grad: np.ndarray) -> None:
        _accumulate(x, grad * mask, owned=True)

    out._backward = backward
    return out


def tanh(x: Tensor) -> Tensor:
    value = np.tanh(x.data)
    out = Tensor(value, requires_grad=x.requires_grad, _parents=(x,))

    def backward(grad: np.ndarray) -> None:
        _accumulate(x, grad * (1.0 - value * value), owned=True)

    out._backward = backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    value = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(value, requires_grad=x.requires_grad, _parents=(x,))

    def backward(grad: np.ndarray) -> None:
        _accumulate(x, grad * value * (1.0 - value), owned=True)

    out._backward = backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (the max shift is gradient-free)."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    exps = (x - shift).exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits``.

    ``logits`` has shape ``(n, classes)``; ``targets`` is ``(n,)`` ints.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise NNError(
            f"cross_entropy shapes: logits {logits.shape}, targets {targets.shape}"
        )
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(len(targets)), targets]
    return -picked.mean()


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise NNError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray) -> None:
        for tensor, piece in zip(tensors, np.split(grad, splits, axis=axis)):
            _accumulate(tensor, piece)

    out._backward = backward
    return out


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise NNError("stack of zero tensors")
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors))

    def backward(grad: np.ndarray) -> None:
        for index, tensor in enumerate(tensors):
            _accumulate(tensor, np.take(grad, index, axis=axis))

    out._backward = backward
    return out


def _matmul_transposed(a: np.ndarray, b: np.ndarray, shape: tuple) -> np.ndarray:
    """A fresh C-ordered array of ``shape`` holding ``swapaxes(a @ b)``.

    BLAS writes the product straight into the transposed layout, with
    the same bits as computing ``a @ b`` and copying its transpose.
    """
    out = np.empty(shape)
    np.matmul(a, b, out=np.swapaxes(out, -1, -2))
    return out


def _step_weight_grad(
    inputs: np.ndarray, dz: np.ndarray, shape: tuple
) -> np.ndarray:
    """One recurrent step's weight gradient, ``swapaxes(inputs.T @ dz)``.

    A single row makes it an outer product, whose entries are single
    exact products however they are formed.
    """
    if inputs.shape[0] == 1:
        return dz.T * inputs
    return _matmul_transposed(inputs.T, dz, shape)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` as one graph node.

    ``x`` is ``(..., in)`` and ``weight`` is ``(out, in)``.  The backward
    pass does the matmul-transpose-add graph's arithmetic: the weight
    gradient is ``swapaxes(x) @ grad`` per leading index, transposed,
    then summed over the leading axes (one flattened ``grad.T @ x``
    would round differently).
    """
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = Tensor(
        out_data,
        requires_grad=any(t.requires_grad for t in parents),
        _parents=parents,
    )
    if not out.requires_grad:
        return out

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, grad @ weight.data, owned=True)
        if weight.requires_grad:
            grad_w = _matmul_transposed(
                np.swapaxes(x.data, -1, -2), grad, x.shape[:-2] + weight.shape
            )
            _accumulate(weight, grad_w, owned=True)
        if bias is not None:
            _accumulate(bias, grad)

    out._backward = backward
    return out


def elman(x: Tensor, layers: list[tuple[Tensor, Tensor, Tensor]]) -> Tensor:
    """A stacked Elman recurrence as one graph node.

    ``x`` is one sequence ``(seq_len, in)`` or ``(seq_len, batch, in)``
    independent ones; ``layers`` holds ``(u, w, b)`` per layer.  Step
    ``t`` of a layer is ``h_t = tanh(x_t @ u.T + h_{t-1} @ w.T + b)``
    with ``h_{-1} = 0``, and the output is the top layer's ``h``, shaped
    like ``x`` with ``hidden`` features.

    The forward pass runs the stack as a wavefront: wave ``s`` advances
    layer ``l`` to step ``s - l`` for every layer at once, so a sequence
    costs ``seq_len + layers - 1`` waves of a few batched numpy calls
    rather than ``seq_len * layers`` steps.  Each wave does one stacked
    input-projection matmul for the layers above the first (the first
    layer's projection is one stacked matmul over all steps up front),
    one stacked recurrent matmul, the bias add and tanh, in the per-step
    ``(x u + h w) + b`` order; a stacked matmul is the same per-slice
    GEMM, so the states are the per-step recurrence's bits.  The
    backward pass is BPTT in reverse time order that adds each step's
    ``u``/``w``/``b`` gradient as it goes; that summation order is the
    per-step graph's, so the gradients are too (one hoisted GEMM over all
    steps rounds differently).
    """
    seq_len = x.shape[0]
    depth = len(layers)
    hidden = layers[0][1].shape[0]
    rows = 1 if x.ndim == 2 else x.shape[1]
    # One sequence steps on (1, in) rows.
    steps = x.data.reshape(seq_len, rows, x.shape[-1])
    # ``waves[s + 1, l]`` is layer l's state at step s - l.  ``waves[0]``
    # and a layer's slots before its first step stay 0: its h_{-1}.
    waves = np.zeros((seq_len + depth, depth, rows, hidden))
    np.matmul(steps, layers[0][0].data.T, out=waves[1 : seq_len + 1, 0])
    # Stacked transposed views, laid out as each ``u.T`` / ``w.T`` is.
    u_t = (
        np.stack([u.data for u, _, _ in layers[1:]]).swapaxes(1, 2)
        if depth > 1 else None
    )
    w_t = np.stack([w.data for _, w, _ in layers]).swapaxes(1, 2)
    biases = np.stack([b.data for _, _, b in layers])[:, None, :]
    for wave in range(seq_len + depth - 1):
        # Layers lo..hi - 1 are inside their sequence on this wave.
        lo, hi = max(0, wave - seq_len + 1), min(wave, depth - 1) + 1
        prev, active = waves[wave, lo:hi], waves[wave + 1, lo:hi]
        above = max(lo, 1)
        if above < hi:
            np.matmul(
                waves[wave, above - 1 : hi - 1],
                u_t[above - 1 : hi - 1],
                out=waves[wave + 1, above:hi],
            )
        active += np.matmul(prev, w_t[lo:hi])
        active += biases[lo:hi]
        np.tanh(active, out=active)
    # Layer l's states over the whole sequence, as strided views.
    states = [waves[l + 1 : l + 1 + seq_len, l] for l in range(depth)]

    parents = (x, *(p for layer in layers for p in layer))
    out = Tensor(
        states[-1].reshape(x.shape[:-1] + (hidden,)),
        requires_grad=any(t.requires_grad for t in parents),
        _parents=parents,
    )
    if not out.requires_grad:
        return out

    def backward(grad: np.ndarray) -> None:
        grad_steps = grad.reshape(seq_len, rows, hidden)
        grad_x = (
            np.empty((seq_len, rows, x.shape[-1])) if x.requires_grad else None
        )
        recurrent: list[np.ndarray | None] = [None] * len(layers)
        for t in reversed(range(seq_len)):
            carry = grad_steps[t]
            for index in reversed(range(len(layers))):
                u, w, b = layers[index]
                h = states[index]
                step_in = steps[t] if index == 0 else states[index - 1][t]
                if recurrent[index] is not None:
                    carry = carry + recurrent[index]
                dz = carry * (1.0 - h[t] * h[t])
                _accumulate(u, _step_weight_grad(step_in, dz, u.shape), owned=True)
                if t:
                    grad_w = _step_weight_grad(h[t - 1], dz, w.shape)
                    _accumulate(w, grad_w, owned=True)
                    recurrent[index] = dz @ w.data
                else:  # h_{-1} = 0 adds exact zeros, as the per-step graph did
                    _accumulate(w, np.zeros_like(w.data), owned=True)
                _accumulate(b, dz)
                if index or grad_x is not None:
                    carry = dz @ u.data
            if grad_x is not None:
                grad_x[t] = carry
        if grad_x is not None:
            _accumulate(x, grad_x.reshape(x.shape), owned=True)

    out._backward = backward
    return out


@lru_cache(maxsize=64)
def _im2col_map(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int,
    transposed: bool = False,
) -> np.ndarray:
    """Flat input index of every im2col entry, ``(C·KH·KW, OH·OW)``.

    Row ``(c, i, j)``, column ``(y, x)`` holds the index of input pixel
    ``(c, y·stride + i − padding, x·stride + j − padding)`` in one node's
    flattened ``(C, H, W)`` image; a tap that lands in the padding holds
    ``C·H·W``, a zero slot one past the image.  ``transposed`` gives the
    same map C-ordered as ``(OH·OW, C·KH·KW)``.  Read-only and shared.
    """
    if transposed:
        index = np.ascontiguousarray(
            _im2col_map(c, h, w, kh, kw, stride, padding).T
        )
        index.flags.writeable = False
        return index
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    rows = np.arange(kh)[:, None] + stride * np.arange(oh) - padding  # (KH, OH)
    cols = np.arange(kw)[:, None] + stride * np.arange(ow) - padding  # (KW, OW)
    inside = ((rows >= 0) & (rows < h))[:, None, :, None] & (
        (cols >= 0) & (cols < w)
    )[None, :, None, :]
    pixel = rows[:, None, :, None] * w + cols[None, :, None, :]
    index = np.where(
        inside, np.arange(c)[:, None, None, None, None] * (h * w) + pixel, c * h * w
    ).reshape(c * kh * kw, oh * ow)
    index.flags.writeable = False
    return index


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) on ``(N, C, H, W)`` inputs.

    ``weight`` is ``(F, C, KH, KW)``; output is ``(N, F, OH, OW)``.
    Implemented with im2col so the heavy lifting is one BLAS matmul per
    pass: ``(F, C*KH*KW) @ (N, C*KH*KW, OH*OW)`` forward, and its
    transposes for the weight and input gradients.  im2col is one
    ``np.take`` through a cached index map (:func:`_im2col_map`) from the
    input copied once into ``(N, C*H*W + 1)`` rows whose last entry is
    the padding's zero; col2im is one ``np.bincount`` through the same
    map, which adds each input pixel's taps in ``(KH, KW)`` order
    starting from 0.0, as a strided add per tap would.

    A recorded graph keeps those input rows, not the im2col matrix
    (about ``KH*KW / stride**2`` times larger): the matrix is freed right
    after the forward GEMM, and the backward pass gathers the weight
    gradient's operand afresh from the rows.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise NNError(f"conv2d expects 4-D input/weight, got {x.shape}/{weight.shape}")
    n, c, h, w = x.shape
    f, wc, kh, kw = weight.shape
    if wc != c:
        raise NNError(f"channel mismatch: input {c}, weight {wc}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise NNError(f"conv2d output would be empty: ({oh}, {ow})")

    taps = _im2col_map(c, h, w, kh, kw, stride, padding)
    size = c * h * w
    flat = np.empty((n, size + 1))
    flat[:, :size] = x.data.reshape(n, size)
    flat[:, size] = 0.0
    cols = np.take(flat, taps, axis=1)  # (N, C*KH*KW, OH*OW)
    if not (weight.requires_grad and grad_enabled()):
        del flat  # only the weight gradient reads the rows again

    w_flat = weight.data.reshape(f, c * kh * kw)
    out_data = np.matmul(w_flat, cols).reshape(n, f, oh, ow)
    del cols
    if bias is not None:
        out_data += bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    requires = any(t.requires_grad for t in parents)
    out = Tensor(out_data, requires_grad=requires, _parents=parents)
    if not out.requires_grad:
        return out

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(n, f, oh * ow)
        if weight.requires_grad:
            # ``np.tensordot(grad_flat, cols, ((0, 2), (0, 2)))``: the same
            # GEMM on the same operands, so the same bits.  For n > 1
            # tensordot copies ``cols`` transposed to (n, L, C·k²); that
            # operand is gathered here straight from the input rows
            # through the transposed map (a whole-array transpose reads
            # all C·k² rows at once, L·8 bytes apart, and at power-of-two
            # encode sizes they evict each other from one cache set).  At
            # n = 1 tensordot passes the transposed view itself, and so
            # does this: a contiguous operand rounds differently there.
            k = c * kh * kw
            if n > 1:
                cols_t = np.take(
                    flat,
                    _im2col_map(c, h, w, kh, kw, stride, padding, True),
                    axis=1,
                )
            else:
                cols_t = np.take(flat, taps, axis=1).transpose(0, 2, 1)
            grad_w = np.dot(
                grad_flat.transpose(1, 0, 2).reshape(f, n * oh * ow),
                cols_t.reshape(n * oh * ow, k),
            ).reshape(weight.shape)
            del cols_t
            _accumulate(weight, grad_w, owned=True)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, grad.sum(axis=(0, 2, 3)), owned=True)
        if x.requires_grad:
            # Node ``i``'s taps land in its own ``size + 1`` slots, the
            # last of which collects (and drops) the padding's.
            slots = taps + np.arange(0, n * (size + 1), size + 1)[:, None, None]
            grad_x = np.bincount(
                slots.ravel(),
                weights=np.matmul(w_flat.T, grad_flat).ravel(),
                minlength=n * (size + 1),
            )
            _accumulate(x, grad_x.reshape(n, size + 1)[:, :size].reshape(x.shape))

    out._backward = backward
    return out

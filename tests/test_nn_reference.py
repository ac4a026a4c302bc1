"""The fused nn path is bit-for-bit the op-by-op graph and textbook optimizers.

``nn_reference`` rebuilds Linear, ReLU, GraphSAGEConv and the Elman RNN
from plain tensor ops and keeps the sliding-window im2col convolution;
these tests run CAMO's policy through both and demand ``np.array_equal``
on logits and on every parameter gradient, hold ``conv2d`` to the
reference convolution as bit patterns, then run the in-place optimizers
against the textbook updates with clipping active.
"""

import numpy as np
import pytest

import nn_reference as ref
from repro.constants import MOVE_SET_NM
from repro.core.config import CamoConfig
from repro.core.policy import CamoPolicy
from repro.nn import SGD, Adam, Parameter, Tensor
from repro.nn import functional as F


def random_graph(n: int, rng) -> np.ndarray:
    """Row-normalized adjacency of a random chain-plus-chords graph."""
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    for _ in range(n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            adj[i, j] = adj[j, i] = 1.0
    return adj / adj.sum(axis=1, keepdims=True)


def with_random_biases(policy, rng):
    """The policy with every bias drawn non-zero: zero biases (as
    initialised) cannot tell ``(x u + h w) + b`` from ``(x u + b) + h w``."""
    for param in policy.parameters():
        if param.ndim == 1:
            param.data[:] = rng.normal(scale=0.1, size=param.shape)
    return policy


def gradients(policy, loss) -> dict[str, np.ndarray]:
    policy.zero_grad()
    loss.backward()
    return {name: p.grad.copy() for name, p in policy.named_parameters()}


def assert_same(fused_logits, fused_grads, ref_logits, ref_grads):
    assert np.array_equal(fused_logits.data, ref_logits.data)
    assert fused_grads.keys() == ref_grads.keys()
    for name in ref_grads:
        assert np.array_equal(fused_grads[name], ref_grads[name]), name


def test_policy_forward_matches_reference():
    """Via-sized policy (encode 32, embed 256), one clip of 11 segments:
    a population of one is bit-for-bit the single-state reference graph."""
    config = CamoConfig(encode_size=32, embed_dim=256)
    rng = np.random.default_rng(4)
    policy = with_random_biases(CamoPolicy(config), rng)
    n = 11
    features = rng.normal(size=(n, 6, 32, 32))
    adjacency = random_graph(n, rng)
    order = list(rng.permutation(n))
    targets = rng.integers(0, len(MOVE_SET_NM), n)

    def run(forward):
        logits = forward(policy, features, adjacency, order)
        return logits, gradients(policy, F.cross_entropy(logits, targets))

    assert_same(
        *run(lambda pol, feats, *args: pol(feats[None], *args)[0]),
        *run(ref.policy_forward),
    )


def test_population_forward_matches_reference():
    """Metal-sized policy (encode 24, embed 128), a population of three."""
    config = CamoConfig.repro_metal(encode_size=24, embed_dim=128)
    rng = np.random.default_rng(5)
    policy = with_random_biases(CamoPolicy(config), rng)
    population, n = 3, 17
    features = rng.normal(size=(population, n, 6, 24, 24))
    adjacency = random_graph(n, rng)
    order = list(rng.permutation(n))
    actions = rng.integers(0, len(MOVE_SET_NM), (population, n))
    advantages = rng.normal(size=population)

    def run(forward):
        logits = forward(policy, features, adjacency, order)
        logp = F.log_softmax(logits, axis=-1)
        picked = logp[np.arange(population)[:, None], np.arange(n), actions]
        loss = (picked.sum(axis=1) * Tensor(-advantages)).sum()
        return logits, gradients(policy, loss)

    assert_same(
        *run(lambda pol, *args: pol(*args)),
        *run(ref.policy_forward_population),
    )


def bits(array: np.ndarray) -> np.ndarray:
    """The array's float64 bit patterns, so a zero's sign counts too."""
    return np.ascontiguousarray(array).view(np.int64)


@pytest.mark.parametrize("shape", [(1, 2, 7, 9), (3, 3, 6, 5)], ids=["n1", "n3"])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_conv2d_matches_reference(kernel, stride, padding, shape):
    """Output and x, weight and bias gradients equal the sliding-window
    im2col and strided-add col2im as bit patterns, on odd, non-square
    inputs holding exact and negative zeros."""
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding + shape[0])
    n, c, h, w = shape
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    weight = rng.normal(size=(4, c, kernel, kernel))
    weight[rng.random(weight.shape) < 0.2] = -0.0
    bias = rng.normal(size=4)
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    grad = rng.normal(size=(n, 4, oh, ow))
    grad[rng.random(grad.shape) < 0.2] = -0.0

    def run(conv):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in (x, weight, bias)]
        out = conv(*tensors, stride=stride, padding=padding)
        out.backward(grad)
        return [out.data] + [t.grad for t in tensors]

    for fused, reference in zip(run(F.conv2d), run(ref.conv2d)):
        assert fused.shape == reference.shape
        assert np.array_equal(bits(fused), bits(reference))


@pytest.mark.parametrize(
    "make, make_ref",
    [
        (lambda ps: Adam(ps, lr=1e-2), lambda arrays: ref.Adam(arrays, lr=1e-2)),
        (
            lambda ps: SGD(ps, lr=1e-2, momentum=0.9),
            lambda arrays: ref.SGD(arrays, lr=1e-2, momentum=0.9),
        ),
    ],
    ids=["adam", "sgd_momentum"],
)
def test_optimizer_matches_textbook(make, make_ref):
    """20 clipped steps; one parameter spans several update blocks."""
    rng = np.random.default_rng(6)
    shapes = [(150, 120), (64, 5), (7,), (3, 4, 5)]
    params = [Parameter(rng.normal(size=shape)) for shape in shapes]
    optimizer = make(params)
    textbook = make_ref([p.data for p in params])
    for _ in range(20):
        grads = [rng.normal(scale=3.0, size=shape) for shape in shapes]
        for param, grad in zip(params, grads):
            param.grad = grad.copy()
        norm = optimizer.clip_grad_norm(5.0)
        assert norm > 5.0  # clipping is active
        optimizer.step()
        textbook.step(ref.clip_grad_norm(grads, 5.0))
        for param, expected in zip(params, textbook.params):
            assert np.array_equal(param.data, expected)

"""The fused nn path is bit-for-bit the op-by-op graph and textbook optimizers.

``nn_reference`` rebuilds Linear, GraphSAGEConv and the Elman RNN from
plain tensor ops; these tests run CAMO's policy through both and demand
``np.array_equal`` on logits and on every parameter gradient, then run
the in-place optimizers against the textbook updates with clipping
active.
"""

import numpy as np
import pytest

import nn_reference as ref
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
    policy = CamoPolicy(config)
    rng = np.random.default_rng(4)
    n = 11
    features = rng.normal(size=(n, config.channels, 32, 32))
    adjacency = random_graph(n, rng)
    order = list(rng.permutation(n))
    targets = rng.integers(0, config.n_actions, n)

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
    policy = CamoPolicy(config)
    rng = np.random.default_rng(5)
    population, n = 3, 17
    features = rng.normal(size=(population, n, config.channels, 24, 24))
    adjacency = random_graph(n, rng)
    order = list(rng.permutation(n))
    actions = rng.integers(0, config.n_actions, (population, n))
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

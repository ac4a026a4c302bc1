"""Autograd tensor core: forward values, gradients, graph mechanics."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nn_gradcheck import check_gradient
from repro.errors import NNError
from repro.nn import SGD, Parameter, Tensor, no_grad
from repro.nn import functional as F
from repro.nn.tensor import grad_enabled


class TestForward:
    def test_add_mul(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert ((a + b) * 2).numpy().tolist() == [8.0, 12.0]

    def test_scalar_coercion(self):
        a = Tensor([1.0, 2.0])
        assert (a + 1).numpy().tolist() == [2.0, 3.0]
        assert (3 * a).numpy().tolist() == [3.0, 6.0]
        assert (1 - a).numpy().tolist() == [0.0, -1.0]
        assert (2 / a).numpy().tolist() == [2.0, 1.0]

    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert (a @ b).numpy().ravel().tolist() == [3.0, 7.0]

    def test_reductions(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert a.sum().item() == 10
        assert a.mean().item() == 2.5
        assert a.sum(axis=0).numpy().tolist() == [4.0, 6.0]
        assert a.mean(axis=1).numpy().tolist() == [1.5, 3.5]

    def test_reshape_transpose_getitem(self):
        a = Tensor(np.arange(6.0))
        b = a.reshape(2, 3)
        assert b.shape == (2, 3)
        assert b.T.shape == (3, 2)
        assert b[1].numpy().tolist() == [3.0, 4.0, 5.0]

    def test_exp_log_pow(self):
        a = Tensor([1.0, 2.0])
        assert np.allclose(a.exp().numpy(), np.exp([1, 2]))
        assert np.allclose(a.log().numpy(), np.log([1, 2]))
        assert np.allclose(a.pow(3).numpy(), [1, 8])


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x + 3 * x).sum()  # dy/dx = 2x + 3 = 7
        y.backward()
        assert x.grad.tolist() == [7.0]

    def test_grad_accumulates_over_fanout(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x + x + x).sum()
        y.backward()
        assert x.grad.tolist() == [3.0]

    def test_broadcast_unbroadcast(self):
        x = Tensor(np.ones((3, 1)), requires_grad=True)
        y = Tensor(np.ones((1, 4)), requires_grad=True)
        (x * y).sum().backward()
        assert x.grad.shape == (3, 1)
        assert np.all(x.grad == 4)
        assert y.grad.shape == (1, 4)
        assert np.all(y.grad == 3)

    def test_scalar_only_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(NNError):
            (x * 2).backward()

    def test_backward_requires_grad(self):
        x = Tensor(np.ones(3))
        with pytest.raises(NNError):
            x.sum().backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_is_per_thread(self):
        """Two threads interleave no_grad as enter A, enter B, exit A,
        exit B; a process-global flag would leave grad off for B and for
        the main thread."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        after = {}

        def run_a():
            with no_grad():
                a_in.set()
                assert b_in.wait(10)
            after["a"] = grad_enabled()
            a_out.set()

        def run_b():
            assert a_in.wait(10)
            with no_grad():
                b_in.set()
                assert a_out.wait(10)
            after["b"] = grad_enabled()

        threads = [threading.Thread(target=run_a),
                   threading.Thread(target=run_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert after == {"a": True, "b": True}
        assert grad_enabled()

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        assert not x.detach().requires_grad

    def test_second_backward_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        assert x.grad.tolist() == [4.0]
        x.zero_grad()
        assert x.grad is None

    def test_getitem_grad_scatter(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[np.array([0, 0, 3])].sum().backward()
        assert x.grad.tolist() == [2.0, 0.0, 0.0, 1.0, 0.0]


class TestGradientBuffers:
    """Every gradient is an array of its own in row-major order, so an
    in-place update of one never leaks into another and every norm
    reduces in the same order."""

    def run_backward(self):
        r = np.random.default_rng(11)
        x = Parameter(r.normal(size=(4, 3)))
        y = Parameter(r.normal(size=(3, 4)))
        w1 = Parameter(r.normal(size=(5, 3)))
        w2 = Parameter(r.normal(size=(2, 3)))
        doubled = x + x
        squared = x * x
        shared = doubled * squared
        a = F.linear(shared, w1)  # one tensor feeding two linear nodes
        b = F.linear(shared, w2)
        flipped = y.T  # its gradient arrives transposed
        loss = (a**2.0).sum() + (b * 3.0).sum() + (flipped * x).sum()
        loss.backward()
        nodes = [x, y, w1, w2, doubled, squared, shared, a, b, flipped, loss]
        return nodes, [x, y, w1, w2]

    def test_every_grad_is_c_ordered(self):
        nodes, _ = self.run_backward()
        for node in nodes:
            assert node.grad is not None
            assert node.grad.flags.c_contiguous

    def test_no_two_grads_share_memory(self):
        nodes, _ = self.run_backward()
        for i, first in enumerate(nodes):
            for second in nodes[i + 1 :]:
                assert not np.shares_memory(first.grad, second.grad)

    def test_clip_norm_matches_c_ordered_copies(self):
        _, params = self.run_backward()
        copies = [np.array(p.grad, order="C") for p in params]
        expected = float(np.sqrt(sum(float((g**2).sum()) for g in copies)))
        norm = SGD(params, lr=0.1).clip_grad_norm(1.0)
        assert norm == expected
        scale = 1.0 / (expected + 1e-12)
        for param, copy in zip(params, copies):
            assert np.array_equal(param.grad, copy * scale)


class TestGradcheckPrimitives:
    rng = np.random.default_rng(7)

    def test_mul_div_chain(self):
        value = self.rng.uniform(0.5, 2.0, size=(3, 4))
        check_gradient(lambda t: ((t * t) / (t + 1.0)).sum(), value)

    def test_matmul(self):
        value = self.rng.normal(size=(3, 4))
        other = Tensor(self.rng.normal(size=(4, 2)))
        check_gradient(lambda t: (t @ other).sum(), value)

    def test_pow(self):
        value = self.rng.uniform(0.5, 1.5, size=(5,))
        check_gradient(lambda t: t.pow(3.0).sum(), value)

    def test_exp_log(self):
        value = self.rng.uniform(0.5, 1.5, size=(4, 3))
        check_gradient(lambda t: (t.exp() + t.log()).sum(), value)

    def test_mean_axis(self):
        value = self.rng.normal(size=(4, 5))
        check_gradient(lambda t: (t.mean(axis=1) ** 2.0).sum(), value)

    def test_transpose_reshape(self):
        value = self.rng.normal(size=(3, 4))
        check_gradient(lambda t: (t.T.reshape(2, 6) ** 2.0).sum(), value)

    def test_getitem_slice(self):
        value = self.rng.normal(size=(6, 3))
        check_gradient(lambda t: (t[1:4] * 2.0).sum(), value)


@settings(max_examples=25, deadline=None)
@given(
    arr=arrays(
        np.float64,
        (2, 3),
        elements=st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
)
def test_property_sum_grad_is_ones(arr):
    x = Tensor(arr, requires_grad=True)
    x.sum().backward()
    assert np.all(x.grad == 1.0)


@settings(max_examples=25, deadline=None)
@given(
    arr=arrays(
        np.float64,
        (4,),
        elements=st.floats(min_value=0.1, max_value=3, allow_nan=False),
    )
)
def test_property_product_rule(arr):
    x = Tensor(arr, requires_grad=True)
    (x * x).sum().backward()
    assert np.allclose(x.grad, 2 * arr)

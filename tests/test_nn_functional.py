"""Gradient checks and behaviour tests for nn.functional ops."""

import tracemalloc

import numpy as np
import pytest

from nn_gradcheck import check_gradient
from repro.errors import NNError
from repro.nn import (
    Tensor,
    concat,
    conv2d,
    cross_entropy,
    log_softmax,
    relu,
    sigmoid,
    softmax,
    stack,
    tanh,
)

rng = np.random.default_rng(11)


class TestActivations:
    def test_relu_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert relu(x).numpy().tolist() == [0.0, 0.0, 2.0]

    def test_tanh_sigmoid_range(self):
        x = Tensor(rng.normal(size=10) * 5)
        assert np.all(np.abs(tanh(x).numpy()) <= 1)
        s = sigmoid(x).numpy()
        assert np.all((s > 0) & (s < 1))

    def test_relu_grad(self):
        value = rng.normal(size=(4, 3)) + 0.1  # keep away from the kink
        check_gradient(lambda t: (relu(t) * 3.0).sum(), value)

    def test_tanh_grad(self):
        check_gradient(lambda t: tanh(t).sum(), rng.normal(size=(3, 3)))

    def test_sigmoid_grad(self):
        check_gradient(lambda t: sigmoid(t).sum(), rng.normal(size=(3, 3)))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(rng.normal(size=(5, 7)) * 10)
        p = softmax(x).numpy()
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_stability_with_huge_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        p = softmax(x).numpy()
        assert np.allclose(p, [[0.5, 0.5, 0.0]])

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(rng.normal(size=(4, 6)))
        assert np.allclose(log_softmax(x).numpy(), np.log(softmax(x).numpy()))

    def test_softmax_grad(self):
        value = rng.normal(size=(3, 5))
        weights = Tensor(rng.normal(size=(3, 5)))
        check_gradient(lambda t: (softmax(t) * weights).sum(), value)

    def test_log_softmax_grad(self):
        value = rng.normal(size=(2, 4))
        check_gradient(lambda t: log_softmax(t)[0, 1].sum(), value)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_uniform_prediction(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = cross_entropy(logits, np.array([1, 2]))
        assert loss.item() == pytest.approx(np.log(4))

    def test_grad(self):
        value = rng.normal(size=(4, 5))
        targets = np.array([0, 2, 4, 1])
        check_gradient(lambda t: cross_entropy(t, targets), value)

    def test_shape_validation(self):
        with pytest.raises(NNError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))


class TestConcatStack:
    def test_concat_values(self):
        a, b = Tensor([[1.0]]), Tensor([[2.0]])
        assert concat([a, b], axis=0).numpy().tolist() == [[1.0], [2.0]]
        assert concat([a, b], axis=1).numpy().tolist() == [[1.0, 2.0]]

    def test_concat_grads_split(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        (concat([a, b], axis=0) * 2.0).sum().backward()
        assert np.all(a.grad == 2) and a.grad.shape == (2, 2)
        assert np.all(b.grad == 2) and b.grad.shape == (3, 2)

    def test_stack_values_and_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        assert a.grad.tolist() == [1.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(NNError):
            concat([])
        with pytest.raises(NNError):
            stack([])


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, w)
        assert np.allclose(out.numpy(), x.numpy())

    def test_averaging_kernel(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        w = Tensor(np.full((1, 1, 2, 2), 0.25))
        out = conv2d(x, w)
        assert out.shape == (1, 1, 3, 3)
        assert np.allclose(out.numpy(), 1.0)

    def test_stride_and_padding_shapes(self):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        assert conv2d(x, w, stride=2, padding=1).shape == (2, 4, 4, 4)
        assert conv2d(x, w, stride=1, padding=0).shape == (2, 4, 6, 6)

    def test_matches_direct_convolution(self):
        """Cross-check im2col against a naive loop implementation."""
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w)).numpy()
        naive = np.zeros((1, 3, 4, 4))
        for f in range(3):
            for i in range(4):
                for j in range(4):
                    naive[0, f, i, j] = np.sum(x[0, :, i : i + 3, j : j + 3] * w[f])
        assert np.allclose(out, naive)

    def test_input_grad(self):
        w = Tensor(rng.normal(size=(2, 2, 3, 3)))
        value = rng.normal(size=(1, 2, 6, 6))
        check_gradient(
            lambda t: (conv2d(t, w, stride=2, padding=1) ** 2.0).sum(), value
        )

    def test_weight_grad(self):
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        value = rng.normal(size=(3, 2, 3, 3))

        def loss(wt):
            return (conv2d(x, wt, stride=1, padding=1) ** 2.0).sum()

        check_gradient(loss, value)

    def test_bias_grad(self):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        w = Tensor(rng.normal(size=(2, 1, 3, 3)))
        value = rng.normal(size=(2,))
        check_gradient(lambda b: (conv2d(x, w, b) ** 2.0).sum(), value)

    # N = 3, C = 2 != F = 4, stride 2, padding 1 on a non-square input.
    BATCH_X = (3, 2, 7, 9)
    BATCH_W = (4, 2, 3, 3)

    def test_matmul_forward_matches_einsum_reference(self):
        x = rng.normal(size=self.BATCH_X)
        w = rng.normal(size=self.BATCH_W)
        b = rng.normal(size=(4,))
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).numpy()
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (3, 3), axis=(2, 3)
        )[:, :, ::2, ::2]
        reference = np.einsum("nchwij,fcij->nfhw", windows, w)
        reference += b.reshape(1, 4, 1, 1)
        assert out.shape == (3, 4, 4, 5)
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)

    def test_batched_strided_input_grad(self):
        w = Tensor(rng.normal(size=self.BATCH_W))
        b = Tensor(rng.normal(size=(4,)))
        check_gradient(
            lambda t: (conv2d(t, w, b, stride=2, padding=1) ** 2.0).sum(),
            rng.normal(size=self.BATCH_X),
        )

    def test_batched_strided_weight_grad(self):
        x = Tensor(rng.normal(size=self.BATCH_X))
        b = Tensor(rng.normal(size=(4,)))
        check_gradient(
            lambda wt: (conv2d(x, wt, b, stride=2, padding=1) ** 2.0).sum(),
            rng.normal(size=self.BATCH_W),
        )

    def test_batched_strided_bias_grad(self):
        x = Tensor(rng.normal(size=self.BATCH_X))
        w = Tensor(rng.normal(size=self.BATCH_W))
        check_gradient(
            lambda bt: (conv2d(x, w, bt, stride=2, padding=1) ** 2.0).sum(),
            rng.normal(size=(4,)),
        )

    # The CAMO encoder's three convs (C -> 16 -> 32 -> 64, 3x3, stride 2,
    # padding 1) at via encode 32, metal encode 24 and the paper's via
    # encode 128, over node counts of the policy's batches.
    ENCODER = [(6, 16, 1), (16, 32, 2), (32, 64, 4)]  # (C, F, size / 2^k)

    @pytest.mark.parametrize(
        "encode, n",
        [(32, n) for n in (1, 7, 17, 110)]
        + [(24, n) for n in (1, 7, 17, 110)]
        + [(128, n) for n in (1, 3)],
    )
    def test_weight_grad_is_bit_for_bit_tensordot(self, encode, n):
        """The weight gradient equals ``np.tensordot(grad, cols, ((0, 2),
        (0, 2)))`` over the forward's im2col ``cols``, bit for bit."""
        local = np.random.default_rng(encode * 1000 + n)
        for c, f, div in self.ENCODER:
            size = encode // div
            x = local.normal(size=(n, c, size, size))
            w = Tensor(local.normal(size=(f, c, 3, 3)), requires_grad=True)
            out = conv2d(Tensor(x), w, stride=2, padding=1)
            grad = local.normal(size=out.shape)
            out.backward(grad)

            padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
            windows = np.lib.stride_tricks.sliding_window_view(
                padded, (3, 3), axis=(2, 3)
            )[:, :, ::2, ::2]
            oh, ow = out.shape[2:]
            cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
                n, c * 9, oh * ow
            )
            reference = np.tensordot(
                grad.reshape(n, f, oh * ow), cols, ((0, 2), (0, 2))
            ).reshape(w.shape)
            assert np.array_equal(w.grad, reference), (c, f, size)

    def test_graph_keeps_less_than_its_im2col_matrix(self):
        """A recorded conv2d keeps its input rows, not the im2col matrix:
        the output and everything its backward holds come to less than
        that matrix (N = 8, 6x32x32 -> 16, 3x3, stride 2, padding 1)."""
        x = Tensor(rng.normal(size=(8, 6, 32, 32)), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 6, 3, 3)), requires_grad=True)
        cols_bytes = 8 * (6 * 9) * (16 * 16) * 8
        conv2d(x, w, stride=2, padding=1)  # warms the cached index map
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, stride=2, padding=1)
            alive = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert alive < cols_bytes

    def test_validation(self):
        with pytest.raises(NNError):
            conv2d(Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 1, 3, 3))))
        with pytest.raises(NNError):
            conv2d(
                Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3)))
            )
        with pytest.raises(NNError):
            conv2d(
                Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5)))
            )

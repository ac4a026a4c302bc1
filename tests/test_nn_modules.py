"""Tests for Module system, layers, RNN, GraphSAGE, optimizers, and the
versioned checkpoint format."""

import os

import numpy as np
import pytest

from nn_gradcheck import check_gradient
from repro.errors import NNError
from repro.geometry import Clip, Polygon, Rect, fragment_clip
from repro.graphs import build_segment_graph
from repro.nn import (
    CHECKPOINT_FORMAT_VERSION,
    SGD,
    Adam,
    Conv2d,
    ElmanRNN,
    Flatten,
    GraphSAGEConv,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tanh,
    Tensor,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn.sage import mean_adjacency

rng = np.random.default_rng(3)


class TestModuleSystem:
    def test_parameter_registration(self):
        layer = Linear(4, 2)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert layer.parameter_count() == 4 * 2 + 2

    def test_nested_modules(self):
        model = Sequential(Linear(4, 8), ReLU(), Linear(8, 2))
        assert model.parameter_count() == (4 * 8 + 8) + (8 * 2 + 2)
        names = [n for n, _ in model.named_parameters()]
        assert "layer0.weight" in names
        assert "layer2.bias" in names

    def test_zero_grad(self):
        layer = Linear(3, 3)
        out = layer(Tensor(rng.normal(size=(2, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self, tmp_path):
        model = Sequential(Linear(4, 8, rng=rng), Tanh(), Linear(8, 2, rng=rng))
        path = str(tmp_path / "model.npz")
        model.save(path)
        clone = Sequential(Linear(4, 8), Tanh(), Linear(8, 2))
        clone.load(path)
        x = Tensor(rng.normal(size=(3, 4)))
        assert np.allclose(model(x).numpy(), clone(x).numpy())

    def test_load_mismatch_raises(self):
        a = Linear(4, 2)
        b = Linear(5, 2)
        with pytest.raises(NNError):
            b.load_state_dict(a.state_dict())

    def test_custom_module_forward_required(self):
        class Broken(Module):
            pass

        with pytest.raises(NotImplementedError):
            Broken()(Tensor([1.0]))


class TestLayers:
    def test_linear_shapes_and_grad(self):
        layer = Linear(6, 4, rng=rng)
        x = rng.normal(size=(5, 6))

        def loss(t):
            return (layer(t) ** 2.0).sum()

        check_gradient(loss, x)

    def test_linear_population_grads(self):
        """3-D input: the weight and bias gradients sum over the population."""
        layer = Linear(6, 4, rng=rng)
        layer.bias.data += rng.normal(size=4)
        x = rng.normal(size=(3, 5, 6))

        def loss(t):
            return (layer(t) ** 2.0).sum()

        check_gradient(loss, x)
        for param in (layer.weight, layer.bias):
            check_gradient(loss, x, param=param)

    def test_linear_validation(self):
        with pytest.raises(NNError):
            Linear(4, 2)(Tensor(np.zeros((3, 5))))

    def test_conv_layer_shape(self):
        layer = Conv2d(3, 8, kernel_size=3, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 3, 16, 16))))
        assert out.shape == (2, 8, 8, 8)

    def test_cnn_pipeline(self):
        model = Sequential(
            Conv2d(6, 4, 3, stride=2, padding=1, rng=rng),
            ReLU(),
            Conv2d(4, 4, 3, stride=2, padding=1, rng=rng),
            Flatten(),
            Linear(4 * 4 * 4, 10, rng=rng),
        )
        out = model(Tensor(rng.normal(size=(3, 6, 16, 16))))
        assert out.shape == (3, 10)

    def test_training_reduces_loss(self):
        """A tiny regression problem must be learnable end to end."""
        model = Sequential(Linear(3, 16, rng=rng), Tanh(), Linear(16, 1, rng=rng))
        x = rng.normal(size=(64, 3))
        y = x[:, :1] * 2 - x[:, 1:2] + 0.5
        opt = Adam(model.parameters(), lr=1e-2)
        first = None
        for _ in range(200):
            opt.zero_grad()
            pred = model(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2.0).mean()
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
        assert loss.item() < first * 0.1


class TestElmanRNN:
    def test_output_shape(self):
        rnn = ElmanRNN(8, 5, num_layers=3, rng=rng)
        out = rnn(Tensor(rng.normal(size=(7, 8))))
        assert out.shape == (7, 5)

    def test_hidden_state_carries_information(self):
        """Changing an early element must change later outputs."""
        rnn = ElmanRNN(4, 6, num_layers=2, rng=rng)
        seq = rng.normal(size=(5, 4))
        base = rnn(Tensor(seq)).numpy()
        changed = seq.copy()
        changed[0] += 1.0
        after = rnn(Tensor(changed)).numpy()
        assert not np.allclose(base[-1], after[-1])

    @staticmethod
    def numpy_recurrence(rnn, steps):
        """Plain-numpy stacked Elman recurrence over ``steps[t]`` rows."""
        state = [np.zeros((1, rnn.hidden_size))] * rnn.num_layers
        outputs = []
        for x in steps:
            for layer in range(rnn.num_layers):
                u, w, b = (
                    getattr(rnn, f"{name}{layer}").data for name in "uwb"
                )
                state[layer] = x = np.tanh(x @ u.T + state[layer] @ w.T + b)
            outputs.append(x)
        return outputs

    def test_forward_matches_numpy_recurrence(self):
        rnn = ElmanRNN(4, 6, num_layers=3, rng=rng)
        seq = rng.normal(size=(5, 4))
        steps = [seq[t : t + 1] for t in range(5)]
        expected = np.concatenate(self.numpy_recurrence(rnn, steps))
        assert np.array_equal(rnn(Tensor(seq)).numpy(), expected)

        batch = rng.normal(size=(5, 3, 4))
        expected = np.stack(self.numpy_recurrence(rnn, list(batch)))
        assert np.array_equal(rnn.forward_batch(Tensor(batch)).numpy(), expected)

    def test_grad_through_time(self):
        rnn = ElmanRNN(3, 4, num_layers=1, rng=rng)
        seq = rng.normal(size=(4, 3))
        check_gradient(lambda t: (rnn(t) ** 2.0).sum(), seq, rtol=1e-3)

    @pytest.mark.parametrize("batched", [False, True])
    def test_parameter_grads_through_time(self, batched):
        """Every layer's u/w/b gradient, through forward and forward_batch."""
        rnn = ElmanRNN(3, 4, num_layers=3, rng=rng)
        seq = rng.normal(size=(4, 2, 3) if batched else (4, 3))
        forward = rnn.forward_batch if batched else rnn.forward
        for param in rnn.parameters():
            param.data += rng.normal(scale=0.1, size=param.shape)  # b != 0
            check_gradient(
                lambda t: (forward(t) ** 2.0).sum(), seq, rtol=1e-3, param=param
            )

    def test_validation(self):
        with pytest.raises(NNError):
            ElmanRNN(4, 4, num_layers=0)
        rnn = ElmanRNN(4, 4)
        with pytest.raises(NNError):
            rnn(Tensor(np.zeros((3, 5))))
        with pytest.raises(NNError):
            rnn.forward_batch(Tensor(np.zeros((3, 4))))


def tiny_graph():
    clip = Clip(
        name="g",
        bbox=Rect(0, 0, 2000, 2000),
        targets=(
            Polygon.from_rect(Rect.square(500, 500, 70)),
            Polygon.from_rect(Rect.square(1500, 1500, 70)),
        ),
        layer="via",
    )
    return build_segment_graph(fragment_clip(clip))


class TestGraphSAGE:
    def test_adjacency_row_normalized(self):
        graph = tiny_graph()
        adj = mean_adjacency(graph)
        sums = adj.sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0)
        assert np.all(np.diag(adj) == 0)

    def test_forward_shape(self):
        graph = tiny_graph()
        layer = GraphSAGEConv(6, 10, rng=rng)
        x = Tensor(rng.normal(size=(graph.n_nodes, 6)))
        out = layer(x, mean_adjacency(graph))
        assert out.shape == (graph.n_nodes, 10)

    def test_information_fuses_along_edges(self):
        """Perturbing one node changes its neighbours' embeddings."""
        graph = tiny_graph()
        layer = GraphSAGEConv(4, 4, rng=rng)
        adj = mean_adjacency(graph)
        x = rng.normal(size=(graph.n_nodes, 4))
        base = layer(Tensor(x), adj).numpy()
        x2 = x.copy()
        x2[0] += 10.0
        after = layer(Tensor(x2), adj).numpy()
        neighbor = graph.neighbors[0][0]
        non_neighbor = 4  # other via's segment: different component
        assert not np.allclose(base[neighbor], after[neighbor])
        assert np.allclose(base[non_neighbor], after[non_neighbor])

    def test_grad(self):
        graph = tiny_graph()
        layer = GraphSAGEConv(3, 2, rng=rng)
        adj = mean_adjacency(graph)
        x = rng.normal(size=(graph.n_nodes, 3))
        check_gradient(lambda t: (layer(t, adj) ** 2.0).sum(), x, rtol=1e-3)

    def test_parameter_grads(self):
        graph = tiny_graph()
        layer = GraphSAGEConv(3, 2, rng=rng)
        layer.bias.data += 0.5  # keep most ReLUs open
        adj = mean_adjacency(graph)
        x = rng.normal(size=(2, graph.n_nodes, 3))  # a population of two
        for param in (layer.weight, layer.bias):
            check_gradient(
                lambda t: (layer(t, adj) ** 2.0).sum(), x, rtol=1e-3, param=param
            )

    def test_validation(self):
        layer = GraphSAGEConv(3, 2)
        with pytest.raises(NNError):
            layer(Tensor(np.zeros((4, 5))), np.zeros((4, 4)))
        with pytest.raises(NNError):
            layer(Tensor(np.zeros((4, 3))), np.zeros((5, 5)))


class TestOptimizers:
    def quad_param(self):
        return Parameter(np.array([5.0, -3.0]))

    def test_sgd_descends(self):
        p = self.quad_param()
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert np.all(np.abs(p.data) < 1e-3)

    def test_sgd_momentum_faster(self):
        p1, p2 = self.quad_param(), self.quad_param()
        plain = SGD([p1], lr=0.01)
        momentum = SGD([p2], lr=0.01, momentum=0.9)
        for _ in range(50):
            for p, opt in ((p1, plain), (p2, momentum)):
                opt.zero_grad()
                (p * p).sum().backward()
                opt.step()
        assert np.abs(p2.data).sum() < np.abs(p1.data).sum()

    def test_adam_descends(self):
        p = self.quad_param()
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert np.all(np.abs(p.data) < 1e-2)

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        opt = SGD([p], lr=0.1)
        p.grad = np.full(4, 10.0)
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(NNError):
            SGD([], lr=0.1)
        with pytest.raises(NNError):
            SGD([Parameter(np.zeros(2))], lr=-1)
        with pytest.raises(NNError):
            SGD([Parameter(np.zeros(2))], lr=0.1, momentum=1.5)

    def test_step_skips_gradless_params(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=0.1)
        opt.step()  # no grads: must be a no-op
        assert np.all(p.data == 1.0)


class TestCheckpointFormat:
    def test_module_save_load_roundtrip(self, tmp_path):
        model = Linear(4, 3, rng=np.random.default_rng(5))
        path = str(tmp_path / "model.npz")
        model.save(path)

        other = Linear(4, 3, rng=np.random.default_rng(99))
        other.load(path)
        np.testing.assert_array_equal(other.weight.data, model.weight.data)
        # No temp residue left next to the checkpoint.
        assert os.listdir(tmp_path) == ["model.npz"]

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        model = Linear(4, 3, rng=np.random.default_rng(5))
        p1, p2 = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        model.save(p1)
        model.save(p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_extra_metadata_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        state = {"w": rng.normal(size=(2, 2))}
        save_checkpoint(path, state, extra={"width": 12, "modes": [3, 3]})
        loaded, extra = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["w"], state["w"])
        assert int(extra["width"]) == 12
        assert extra["modes"].tolist() == [3, 3]

    def test_fingerprint_rejects_corruption(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, {"w": np.ones((2, 2))})
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["w"] = payload["w"] + 1.0  # corrupt a parameter, keep meta
        np.savez_compressed(path, **payload)
        with pytest.raises(NNError, match="fingerprint"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, {"w": np.ones(2)})
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["__repro_ckpt_version"] = np.array(CHECKPOINT_FORMAT_VERSION + 1)
        np.savez_compressed(path, **payload)
        with pytest.raises(NNError, match="version"):
            load_checkpoint(path)

    def test_legacy_meta_free_npz_loads(self, tmp_path):
        model = Linear(3, 2, rng=np.random.default_rng(6))
        path = str(tmp_path / "legacy.npz")
        np.savez_compressed(path, **model.state_dict())
        other = Linear(3, 2, rng=np.random.default_rng(7))
        other.load(path)
        np.testing.assert_array_equal(other.weight.data, model.weight.data)

    def test_meta_name_collision_rejected(self, tmp_path):
        with pytest.raises(NNError, match="collides"):
            save_checkpoint(
                str(tmp_path / "x.npz"), {"__repro_ckpt_version": np.ones(1)}
            )

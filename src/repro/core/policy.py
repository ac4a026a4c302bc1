"""The correlation-aware policy network.

Architecture (paper Section 3.2 + our documented reading of it):

1. a *shared* CNN reduces each node's ``(6, s, s)`` squish tensor to a
   compact vector — the node feature;
2. GraphSAGE levels fuse features along the proximity-graph edges to
   produce 256-d node embeddings (paper Eq. 4);
3. a 3-layer Elman RNN walks the embeddings in a spatial visit order,
   coordinating neighbouring segments through its hidden state (Eq. 5);
4. a ``64 x 5`` head yields one 5-way movement distribution per segment.

``use_gnn`` / ``use_rnn`` flags swap stages 2 / 3 for identity /
per-node MLP — the ablation grid reported in the benches.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MOVE_SET_NM
from repro.core.config import CamoConfig
from repro.errors import NNError
from repro.nn.layers import Conv2d, GlobalAvgPool2d, Linear, ReLU
from repro.nn.module import Module, Sequential
from repro.nn.rnn import ElmanRNN
from repro.nn.sage import GraphSAGEConv
from repro.nn.tensor import Tensor


class CamoPolicy(Module):
    """CNN -> GraphSAGE -> RNN -> FC policy (one distribution per node)."""

    def __init__(self, config: CamoConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)

        # The global-average-pool tail keeps the node feature robust to
        # where the geometry sits inside its window.  Its Linear draws
        # from ``rng`` before the convolutions do: that order fixes every
        # initial weight.
        tail = Linear(64, config.embed_dim, rng=rng)
        self.encoder = Sequential(
            Conv2d(6, 16, 3, stride=2, padding=1, rng=rng),
            ReLU(),
            Conv2d(16, 32, 3, stride=2, padding=1, rng=rng),
            ReLU(),
            Conv2d(32, 64, 3, stride=2, padding=1, rng=rng),
            ReLU(),
            GlobalAvgPool2d(),
            tail,
            ReLU(),
        )

        if config.use_gnn:
            for index in range(config.sage_layers):
                setattr(
                    self,
                    f"sage{index}",
                    GraphSAGEConv(config.embed_dim, config.embed_dim, rng=rng),
                )

        if config.use_rnn:
            self.rnn = ElmanRNN(
                config.embed_dim,
                config.rnn_hidden,
                num_layers=config.rnn_layers,
                rng=rng,
            )
        else:
            self.node_mlp = Sequential(
                Linear(config.embed_dim, config.rnn_hidden, rng=rng), ReLU()
            )
        self.head = Linear(config.rnn_hidden, len(MOVE_SET_NM), rng=rng)

    # -- forward ------------------------------------------------------------
    def forward(
        self,
        features: np.ndarray,
        adjacency: np.ndarray,
        order: list[int],
    ) -> Tensor:
        """Movement logits ``(P, n, 5)`` for P states of one clip, each in
        original segment order.

        Every caller passes a population; a single state is a population
        of one.  The population shares the clip's graph and visit order
        but owns distinct masks, so the whole forward runs as one batched
        graph: the CNN sees ``(P * n)`` nodes at once, GraphSAGE
        broadcasts the shared adjacency over the population axis, and the
        RNN advances P sequences per time step with a ``(P, hidden)``
        state.  The batching never mixes rows.  At P=1 every op sees the
        same operands as a single-state graph: logits and parameter
        gradients equal the op-by-op single-state reference bit for bit
        (``tests/test_nn_reference.py``).  For P > 1 a row matches that
        state's P=1 logits to within a few ulps (batched matmuls may sum
        in a different order).

        Args:
            features: ``(P, n, channels, s, s)`` node feature tensors.
            adjacency: Row-normalized mean-aggregation matrix.
            order: RNN visit order (a permutation of node indices).
        """
        if features.ndim != 5:
            raise NNError(
                f"expected (P, n, c, s, s) population features, got "
                f"{features.shape}"
            )
        population, n = features.shape[:2]
        if sorted(order) != list(range(n)):
            raise NNError("order must be a permutation of node indices")
        flat = features.reshape(population * n, *features.shape[2:])
        embeddings = self.encoder(Tensor(flat)).reshape(population, n, -1)

        if self.config.use_gnn:
            for index in range(self.config.sage_layers):
                embeddings = getattr(self, f"sage{index}")(embeddings, adjacency)

        if self.config.use_rnn:
            order_arr = np.asarray(order)
            ordered = embeddings[:, order_arr]
            hidden = self.rnn.forward_batch(ordered.transpose(1, 0, 2))
            hidden = hidden.transpose(1, 0, 2)[:, np.argsort(order_arr)]
        else:
            hidden = self.node_mlp(embeddings)

        return self.head(hidden)

    def forward_population(
        self,
        features: np.ndarray,
        adjacency: np.ndarray,
        order: list[int],
    ) -> Tensor:
        """Another name for :meth:`forward`; no ``repro`` code calls it
        (perfbench's layer tracer hooks it here)."""
        return self.forward(features, adjacency, order)

"""GraphSAGE convolution (paper Eq. 4).

Mean-aggregates neighbour features and combines them with the node's own
feature by concatenation followed by a linear map — the classic GraphSAGE
"mean" variant from Hamilton et al. (NeurIPS'17) that the paper cites.
The graph topology enters as a fixed row-normalized adjacency matrix, so
the whole layer is an aggregation matmul, a concat and one linear node.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NNError
from repro.graphs.construction import SegmentGraph
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


def mean_adjacency(graph: SegmentGraph) -> np.ndarray:
    """Row-normalized neighbour-averaging matrix ``A`` with zero diagonal.

    Row ``i`` holds ``1 / deg(i)`` at each neighbour column; isolated nodes
    get an all-zero row (their aggregate is the zero vector).
    """
    n = graph.n_nodes
    adj = np.zeros((n, n), dtype=np.float64)
    for i, neighbors in enumerate(graph.neighbors):
        if neighbors:
            adj[i, neighbors] = 1.0 / len(neighbors)
    return adj


class GraphSAGEConv(Module):
    """One GraphSAGE level: ``out = act([x, mean_N(x)] W^T + b)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((out_features, 2 * in_features), rng)
        )
        self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x: Tensor, adjacency: np.ndarray) -> Tensor:
        """``x`` is ``(n_nodes, in_features)`` — or ``(batch, n_nodes,
        in_features)`` for a population of independent graph copies, all
        sharing ``adjacency`` (the matmul broadcasts over the leading
        axis, so no cross-population edges exist).  Adjacency comes from
        :func:`mean_adjacency` (constant w.r.t. the graph)."""
        if x.ndim not in (2, 3) or x.shape[-1] != self.in_features:
            raise NNError(
                f"expected (..., n, {self.in_features}) input, got {x.shape}"
            )
        if adjacency.shape != (x.shape[-2], x.shape[-2]):
            raise NNError(
                f"adjacency {adjacency.shape} does not match {x.shape[-2]} nodes"
            )
        aggregated = Tensor(adjacency) @ x
        combined = F.concat([x, aggregated], axis=-1)
        return F.relu(F.linear(combined, self.weight, self.bias))

"""The per-segment CNN of RL-OPC's policy and the DAMO-like regressor.

Each segment's ``(3, s, s)`` adaptive-squish window passes through three
stride-2 convolutions (3 -> 8 -> 16 -> 32 channels), an ``embed_dim``
hidden layer and a linear head; segments never see one another.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2d, Flatten, Linear, ReLU
from repro.nn.module import Sequential


def segment_cnn(config, out_features: int) -> Sequential:
    """The CNN for ``config``'s ``encode_size`` and ``embed_dim``, with
    ``out_features`` outputs per segment.  The layers draw their weights
    from one ``config.seed`` generator in order, so the seed fixes every
    initial weight."""
    rng = np.random.default_rng(config.seed)
    final_spatial = config.encode_size // 8
    return Sequential(
        Conv2d(3, 8, 3, stride=2, padding=1, rng=rng),
        ReLU(),
        Conv2d(8, 16, 3, stride=2, padding=1, rng=rng),
        ReLU(),
        Conv2d(16, 32, 3, stride=2, padding=1, rng=rng),
        ReLU(),
        Flatten(),
        Linear(32 * final_spatial * final_spatial, config.embed_dim, rng=rng),
        ReLU(),
        Linear(config.embed_dim, out_features, rng=rng),
    )

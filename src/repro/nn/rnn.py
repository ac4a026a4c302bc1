"""Multi-layer Elman RNN (paper Eq. 5).

Each layer computes ``h_t = tanh(U x_t + W h_{t-1} + b)``; the top layer's
hidden states are the module output (CAMO adds a separate fully-connected
head on top).  The forward pass consumes a whole node sequence, matching
how CAMO walks segments in visit order, and the whole stack over the whole
sequence is one autograd node (:func:`repro.nn.functional.elman`): the
forward runs the per-step recurrence and the backward is BPTT, so a
sequence costs one graph node instead of several per layer per step.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NNError
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class ElmanRNN(Module):
    """Stacked Elman recurrent network.

    Args:
        input_size: Feature size of each sequence element.
        hidden_size: Hidden-state size (shared across layers).
        num_layers: Number of stacked recurrent layers (paper uses 3).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise NNError(f"num_layers must be >= 1, got {num_layers}")
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            setattr(
                self,
                f"u{layer}",
                Parameter(init.xavier_uniform((hidden_size, in_size), rng)),
            )
            setattr(
                self,
                f"w{layer}",
                Parameter(init.xavier_uniform((hidden_size, hidden_size), rng)),
            )
            setattr(self, f"b{layer}", Parameter(init.zeros((hidden_size,))))

    def _layers(self) -> list[tuple[Tensor, Tensor, Tensor]]:
        return [
            (getattr(self, f"u{layer}"), getattr(self, f"w{layer}"),
             getattr(self, f"b{layer}"))
            for layer in range(self.num_layers)
        ]

    def forward(self, sequence: Tensor) -> Tensor:
        """Process ``(seq_len, input_size)``; return ``(seq_len, hidden)``."""
        if sequence.ndim != 2 or sequence.shape[1] != self.input_size:
            raise NNError(
                f"expected (seq, {self.input_size}) input, got {sequence.shape}"
            )
        return F.elman(sequence, self._layers())

    def forward_batch(self, sequences: Tensor) -> Tensor:
        """Process ``(seq_len, batch, input_size)`` independent sequences.

        The recurrence runs once over time with a ``(batch, hidden)``
        state.  The hidden state never mixes columns.  A batch of one
        steps on the same ``(1, input_size)`` rows as :meth:`forward`
        and is bit-for-bit identical to it, gradients included; in a
        larger batch a column may differ from its solo run by a few ulps
        of batched-matmul summation order.  Returns
        ``(seq_len, batch, hidden)``.
        """
        if sequences.ndim != 3 or sequences.shape[2] != self.input_size:
            raise NNError(
                f"expected (seq, batch, {self.input_size}) input, "
                f"got {sequences.shape}"
            )
        return F.elman(sequences, self._layers())

"""Standard layers: Linear, Conv2d, global average pooling, activations."""

from __future__ import annotations

import numpy as np

from repro.errors import NNError
from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Linear(Module):
    """Affine map ``y = x W^T + b`` on ``(..., in_features)`` inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise NNError(
                f"Linear expected last dim {self.in_features}, got {x.shape}"
            )
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution layer over ``(N, C, H, W)`` tensors."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            )
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding
        )


class Flatten(Module):
    """Collapse all but the leading (batch) dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class GlobalAvgPool2d(Module):
    """Mean over the spatial dimensions: ``(N, C, H, W) -> (N, C)``.

    Translation-robust alternative to Flatten+Linear for encoder tails.
    """

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise NNError(f"GlobalAvgPool2d expects 4-D input, got {x.shape}")
        return x.mean(axis=(2, 3))


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)

"""RL-OPC [Liang et al., TCAD'23] reimplementation.

The baseline the paper positions CAMO against: an RL agent that decides
each segment's movement *independently* from its local 3-channel adaptive
squish features — no graph fusion, no sequential coordination, no
modulator.  :class:`RLOPC` is a :class:`~repro.core.agent.CAMO` that
differs only in those three things: its per-segment CNN policy, its
3-channel features, and a decision rule without the modulator
(temperature 1, one RL trajectory per clip).  Everything else is CAMO's
own code: the teacher rollouts from CAMO's bias offsets, the two-phase
training (imitation, then REINFORCE with CAMO's EMA reward baseline at
0.3x the learning rate and early-exit dropout), and greedy inference.
So the only differences from CAMO are the ones the paper credits:
spatial correlation handling and modulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.baselines.segment_cnn import segment_cnn
from repro.core.agent import CAMO
from repro.core.config import CamoConfig
from repro.errors import ConfigError
from repro.nn.module import Module
from repro.nn.tensor import Tensor


@dataclass(frozen=True)
class RLOPCConfig:
    """RL-OPC hyper-parameters (mirrors the CAMO repro profile scale)."""

    window_nm: float = 500.0
    encode_size: int = 32
    embed_dim: int = 128
    learning_rate: float = 3e-4
    momentum: float = 0.9
    imitation_epochs: int = 10
    imitation_weighting: str = "unit"
    rl_epochs: int = 5
    max_updates: int = 10
    early_exit_threshold: float = 4.0
    early_exit_mode: str = "per_target"
    initial_bias_nm: float = 0.0
    seed: int = 77

    # What CAMO's loops read that RL-OPC fixes: the raw policy decides
    # (no modulator, temperature 1) on one trajectory per clip, trained
    # by momentum SGD; the environment and the (ignored) clip graph are
    # CAMO's defaults.
    use_modulator: ClassVar[bool] = False
    policy_temperature: ClassVar[float] = 1.0
    rl_population: ClassVar[int] = 1
    optimizer: ClassVar[str] = "sgd"
    epe_search_nm: ClassVar[float] = CamoConfig.epe_search_nm
    reward_epsilon: ClassVar[float] = CamoConfig.reward_epsilon
    reward_beta: ClassVar[float] = CamoConfig.reward_beta
    graph_threshold_nm: ClassVar[float] = CamoConfig.graph_threshold_nm
    ordering: ClassVar[str] = CamoConfig.ordering

    def __post_init__(self) -> None:
        if self.encode_size % 8:
            raise ConfigError("encode_size must be divisible by 8 (CNN strides)")
        if self.early_exit_mode not in ("per_target", "per_point"):
            raise ConfigError(f"unknown early_exit_mode {self.early_exit_mode!r}")
        if self.imitation_weighting not in ("unit", "reward"):
            raise ConfigError(
                f"unknown imitation_weighting {self.imitation_weighting!r}"
            )


class RlOpcPolicy(Module):
    """The per-segment CNN; each segment classified independently."""

    def __init__(self, config: RLOPCConfig) -> None:
        super().__init__()
        self.net = segment_cnn(config, 5)

    def forward(
        self, features: np.ndarray, adjacency: np.ndarray, order: list[int]
    ) -> Tensor:
        """Logits ``(P, n, 5)`` from ``(P, n, 3, s, s)`` node features.
        The clip graph (``adjacency``, ``order``) is ignored: no segment
        sees another."""
        population, n = features.shape[:2]
        flat = features.reshape(population * n, *features.shape[2:])
        return self.net(Tensor(flat)).reshape(population, n, -1)


class RLOPC(CAMO):
    """Independent per-segment RL OPC engine."""

    name = "rlopc"
    policy_class = RlOpcPolicy
    feature_channels = 3

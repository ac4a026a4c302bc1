"""RL-OPC [Liang et al., TCAD'23] reimplementation.

The baseline the paper positions CAMO against: an RL agent that decides
each segment's movement *independently* from its local 3-channel adaptive
squish features — no graph fusion, no sequential coordination, no
modulator.  Training is the same two-phase recipe (imitation then
REINFORCE) so that the only differences from CAMO are the ones the paper
credits: spatial correlation handling and modulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.agent import OptimizeResult, run_episode
from repro.errors import ConfigError, RLError
from repro.geometry.layout import Clip
from repro.litho.simulator import LithographySimulator
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Flatten, Linear, ReLU
from repro.nn.module import Module, Sequential
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor, no_grad
from repro.rl.env import EnvState, OPCEnvironment
from repro.rl.imitation import (
    collect_teacher_actions_population,
    greedy_teacher_actions,
)
from repro.rl.reinforce import (
    population_gradient_step,
    sample_actions,
    select_log_probs_population,
)
from repro.squish.features import NodeFeatureEncoder


@dataclass(frozen=True)
class RLOPCConfig:
    """RL-OPC hyper-parameters (mirrors the CAMO repro profile scale)."""

    window_nm: float = 500.0
    encode_size: int = 32
    embed_dim: int = 128
    learning_rate: float = 3e-4
    momentum: float = 0.9
    imitation_epochs: int = 10
    imitation_steps: int = 5
    imitation_weighting: str = "unit"
    rl_epochs: int = 5
    max_updates: int = 10
    early_exit_threshold: float = 4.0
    early_exit_mode: str = "per_target"
    initial_bias_nm: float = 0.0
    max_grad_norm: float = 10.0
    seed: int = 77

    def __post_init__(self) -> None:
        if self.encode_size % 8:
            raise ConfigError("encode_size must be divisible by 8 (CNN strides)")
        if self.early_exit_mode not in ("per_target", "per_point"):
            raise ConfigError(f"unknown early_exit_mode {self.early_exit_mode!r}")
        if self.imitation_weighting not in ("unit", "reward"):
            raise ConfigError(
                f"unknown imitation_weighting {self.imitation_weighting!r}"
            )

    @classmethod
    def metal(cls, **overrides) -> "RLOPCConfig":
        base = cls(
            max_updates=15,
            early_exit_threshold=1.0,
            early_exit_mode="per_point",
        )
        return replace(base, **overrides)


class RlOpcPolicy(Module):
    """Shared CNN -> MLP; each segment classified independently."""

    def __init__(self, config: RLOPCConfig) -> None:
        super().__init__()
        rng = np.random.default_rng(config.seed)
        final_spatial = config.encode_size // 8
        self.net = Sequential(
            Conv2d(3, 8, 3, stride=2, padding=1, rng=rng),
            ReLU(),
            Conv2d(8, 16, 3, stride=2, padding=1, rng=rng),
            ReLU(),
            Conv2d(16, 32, 3, stride=2, padding=1, rng=rng),
            ReLU(),
            Flatten(),
            Linear(32 * final_spatial * final_spatial, config.embed_dim, rng=rng),
            ReLU(),
            Linear(config.embed_dim, 5, rng=rng),
        )

    def forward(self, features: np.ndarray) -> Tensor:
        """Logits ``(P, n, 5)`` from ``(P, n, 3, s, s)`` node features."""
        population, n = features.shape[:2]
        flat = features.reshape(population * n, *features.shape[2:])
        return self.net(Tensor(flat)).reshape(population, n, -1)


class RLOPC:
    """Independent per-segment RL OPC engine."""

    name = "rlopc"

    def __init__(self, config: RLOPCConfig, simulator: LithographySimulator) -> None:
        self.config = config
        self.simulator = simulator
        self.policy = RlOpcPolicy(config)
        self.encoder = NodeFeatureEncoder(
            window_nm=config.window_nm, out_size=config.encode_size, channels=3
        )
        self.optimizer = SGD(
            self.policy.parameters(),
            lr=config.learning_rate,
            momentum=config.momentum,
        )
        self.rng = np.random.default_rng(config.seed)
        self._envs: dict[str, OPCEnvironment] = {}

    def _env(self, clip: Clip) -> OPCEnvironment:
        env = self._envs.get(clip.name)
        if env is None:
            env = OPCEnvironment(
                clip, self.simulator, initial_bias_nm=self.config.initial_bias_nm
            )
            self._envs[clip.name] = env
        return env

    def _logits(self, state: EnvState) -> Tensor:
        """``(1, n, 5)`` logits: one state is a population of one."""
        return self.policy(self.encoder.encode_all(state.mask)[None])

    def _step(self, log_probs: Tensor, advantage: float) -> None:
        population_gradient_step(
            self.optimizer, log_probs, np.array([advantage]),
            max_grad_norm=self.config.max_grad_norm,
        )

    # -- training ----------------------------------------------------------
    def train(self, clips: list[Clip], verbose: bool = False) -> dict[str, list[float]]:
        if not clips:
            raise RLError("training requires at least one clip")
        history: dict[str, list[float]] = {"imitation_logp": [], "rl_reward": []}
        teacher_data = {
            clip.name: [
                (self.encoder.encode_all(state.mask)[None], actions[None], reward)
                for state, actions, reward in collect_teacher_actions_population(
                    self._env(clip), steps=self.config.imitation_steps,
                    teacher=greedy_teacher_actions,
                )[0]
            ]
            for clip in clips
        }
        unit_weight = self.config.imitation_weighting == "unit"
        for _ in range(self.config.imitation_epochs):
            epoch_logp = 0.0
            for clip in clips:
                for features, actions, reward in teacher_data[clip.name]:
                    log_probs = select_log_probs_population(
                        self.policy(features), actions
                    )
                    self._step(log_probs, 1.0 if unit_weight else reward)
                    epoch_logp += float(log_probs.numpy()[0])
            history["imitation_logp"].append(epoch_logp)
        for _ in range(self.config.rl_epochs):
            epoch_reward = 0.0
            for clip in clips:
                env = self._env(clip)
                state = env.reset()
                for _ in range(self.config.max_updates):
                    logits = self._logits(state)
                    actions = sample_actions(
                        F.softmax(logits, axis=-1).numpy(), self.rng
                    )
                    next_state, reward = env.step(state, actions[0])
                    self._step(
                        select_log_probs_population(logits, actions), reward
                    )
                    epoch_reward += reward
                    state = next_state
            history["rl_reward"].append(epoch_reward)
        return history

    # -- inference ------------------------------------------------------------
    def optimize(
        self,
        clip: Clip,
        max_updates: int | None = None,
        early_exit: bool = True,
    ) -> OptimizeResult:
        started = time.perf_counter()
        env = self._env(clip)

        def advance(state: EnvState, step: int):
            with no_grad():
                actions = self._logits(state).numpy()[0].argmax(axis=1)
            return (actions, *env.step(state, actions))

        return run_episode(
            clip, env, advance, self.config, started, max_updates, early_exit
        )

"""DAMO-profile baseline: one-shot generative mask correction.

DAMO (Chen et al., ICCAD'20) is a conditional-GAN mask generator: a single
network inference produces the corrected mask, with no test-time
iteration or exploration.  Training a cGAN is out of scope for a CPU-only
numpy substrate, so this surrogate reproduces DAMO's *behavioural profile*
in Table 1 instead: a regression network learns to predict final segment
offsets from the initial layout state (supervised by the model-based
engine, exactly the "bounded by the dataset quality" limitation the paper
discusses), then applies them in one shot.  It is by far the fastest
engine and — with no feedback loop — the least accurate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.mbopc import MBOPC, MBOPCConfig
from repro.baselines.segment_cnn import segment_cnn
from repro.core.agent import OptimizeResult
from repro.errors import RLError
from repro.geometry.layout import Clip
from repro.litho.simulator import LithographySimulator
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.rl.env import OPCEnvironment
from repro.rl.trajectory import Trajectory, TrajectoryStep
from repro.squish.features import NodeFeatureEncoder


@dataclass(frozen=True)
class DamoConfig:
    """One-shot predictor settings."""

    window_nm: float = 500.0
    encode_size: int = 32
    embed_dim: int = 128
    max_offset_nm: float = 10.0
    learning_rate: float = 1e-3
    epochs: int = 60
    teacher_updates: int = 10
    initial_bias_nm: float = 0.0
    seed: int = 5


class _OffsetRegressor(Module):
    """Shared CNN -> scalar offset per segment, bounded by tanh."""

    def __init__(self, config: DamoConfig) -> None:
        super().__init__()
        self.max_offset = config.max_offset_nm
        self.net = segment_cnn(config, 1)

    def forward(self, features: np.ndarray) -> Tensor:
        raw = self.net(Tensor(features))
        return F.tanh(raw * (1.0 / self.max_offset)) * self.max_offset


class DamoLikeOPC:
    """Single-inference mask corrector (the "DAMO" column of Table 1)."""

    name = "damo"

    def __init__(self, config: DamoConfig, simulator: LithographySimulator) -> None:
        self.config = config
        self.simulator = simulator
        self.model = _OffsetRegressor(config)
        self.encoder = NodeFeatureEncoder(
            window_nm=config.window_nm, out_size=config.encode_size, channels=3
        )
        self.optimizer = Adam(self.model.parameters(), lr=config.learning_rate)

    # -- training ------------------------------------------------------------
    def train(self, clips: list[Clip], verbose: bool = False) -> list[float]:
        """Supervised regression onto the model-based engine's offsets."""
        if not clips:
            raise RLError("training requires at least one clip")
        teacher = MBOPC(
            MBOPCConfig(
                max_updates=self.config.teacher_updates,
                initial_bias_nm=self.config.initial_bias_nm,
            ),
            self.simulator,
        )
        features: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for clip in clips:
            env = OPCEnvironment(
                clip, self.simulator, initial_bias_nm=self.config.initial_bias_nm
            )
            initial = env.reset()
            outcome = teacher.optimize(clip, early_exit=False)
            features.append(self.encoder.encode_all(initial.mask))
            labels.append(
                outcome.final_state.mask.offsets - initial.mask.offsets
            )
        x = np.concatenate(features, axis=0)
        y = np.concatenate(labels, axis=0)[:, None]
        losses: list[float] = []
        for epoch in range(self.config.epochs):
            self.optimizer.zero_grad()
            pred = self.model(x)
            loss = ((pred - Tensor(y)) ** 2.0).mean()
            loss.backward()
            self.optimizer.step()
            losses.append(loss.item())
            if verbose:
                print(f"[damo] epoch {epoch}: mse {loss.item():.4f}")
        return losses

    # -- inference ------------------------------------------------------------
    def optimize(self, clip: Clip, **_ignored) -> OptimizeResult:
        """One forward pass, one mask update, one evaluation."""
        start = time.perf_counter()
        env = OPCEnvironment(
            clip, self.simulator, initial_bias_nm=self.config.initial_bias_nm
        )
        initial = env.reset()
        with no_grad():
            offsets = self.model(self.encoder.encode_all(initial.mask)).numpy()[:, 0]
        state = env.evaluate(initial.mask.moved(np.round(offsets)))
        trajectory = Trajectory(epe_initial=initial.total_epe)
        trajectory.append(
            TrajectoryStep(
                actions=np.round(offsets).astype(int),
                epe_after=state.total_epe,
            )
        )
        return OptimizeResult(
            clip_name=clip.name,
            final_state=state,
            trajectory=trajectory,
            steps=1,
            runtime_s=time.perf_counter() - start,
            early_exited=False,
        )

"""Model-based OPC: the Calibre stand-in.

Commercial OPC engines iterate: simulate, measure per-segment EPE, move
each segment against its error with a damped feedback gain, repeat until
convergence or the iteration budget runs out.  This module implements that
loop on our substrate.  It doubles as the phase-1 imitation teacher (its
per-step decision rule is :func:`repro.rl.imitation.greedy_teacher_actions`
restricted to the +/-2 nm move set).

Each iteration's corner sweep is one environment step: one
:meth:`~repro.litho.simulator.LithographySimulator.simulate_batch` call
whose shared real-input FFT feeds the exact pupil-band subgrid engine.
Segment EPE comes from the nominal intensity lifted at the segments'
stencil pixels; only the defocus corner is resampled to the full grid,
for the PV band.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.agent import OptimizeResult
from repro.errors import ConfigError
from repro.geometry.layout import Clip
from repro.litho.simulator import LithographySimulator
from repro.rl.env import OPCEnvironment
from repro.rl.imitation import quantize_to_move_set
from repro.rl.trajectory import Trajectory, TrajectoryStep


@dataclass(frozen=True)
class MBOPCConfig:
    """Feedback-loop settings."""

    gain: float = 0.5
    gain_decay: float = 0.15
    deadband_nm: float = 1.2
    max_updates: int = 10
    early_exit_threshold: float = 4.0
    early_exit_mode: str = "per_target"
    initial_bias_nm: float = 0.0
    max_step_nm: float = 2.0
    epe_search_nm: float = 40.0

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise ConfigError(f"gain must be positive, got {self.gain}")
        if self.gain_decay < 0 or self.deadband_nm < 0:
            raise ConfigError("gain_decay and deadband_nm must be non-negative")
        if self.early_exit_mode not in ("per_target", "per_point"):
            raise ConfigError(f"unknown early_exit_mode {self.early_exit_mode!r}")


class MBOPC:
    """Iterative EPE-feedback OPC (the "Calibre" column of the tables)."""

    name = "mbopc"

    def __init__(
        self, config: MBOPCConfig, simulator: LithographySimulator
    ) -> None:
        self.config = config
        self.simulator = simulator

    def optimize(
        self,
        clip: Clip,
        max_updates: int | None = None,
        early_exit: bool = True,
    ) -> OptimizeResult:
        start = time.perf_counter()
        env = OPCEnvironment(
            clip,
            self.simulator,
            initial_bias_nm=self.config.initial_bias_nm,
            epe_search_nm=self.config.epe_search_nm,
        )
        limit = max_updates if max_updates is not None else self.config.max_updates
        state = env.reset()
        trajectory = Trajectory(epe_initial=state.total_epe)
        exited = False
        steps = 0
        for _ in range(limit):
            if early_exit and self._early_exit(clip, state):
                exited = True
                break
            actions = self._decide(state.seg_epe, steps)
            state, reward = env.step(state, actions)
            steps += 1
            trajectory.append(
                TrajectoryStep(
                    actions=actions,
                    reward=reward,
                    epe_after=state.total_epe,
                    pvband_after=state.pvband,
                )
            )
        return OptimizeResult(
            clip_name=clip.name,
            final_state=state,
            trajectory=trajectory,
            steps=steps,
            runtime_s=time.perf_counter() - start,
            early_exited=exited,
        )

    def _decide(self, seg_epe: np.ndarray, step: int) -> np.ndarray:
        """Damped feedback: the gain decays with the iteration count and a
        deadband holds converged segments still (prevents limit cycles)."""
        gain = self.config.gain / (1.0 + self.config.gain_decay * step)
        moves = np.clip(
            np.round(-gain * seg_epe),
            -self.config.max_step_nm,
            self.config.max_step_nm,
        )
        moves[np.abs(seg_epe) < self.config.deadband_nm] = 0.0
        return quantize_to_move_set(moves)

    def _early_exit(self, clip: Clip, state) -> bool:
        if self.config.early_exit_mode == "per_target":
            return state.total_epe / clip.target_count < self.config.early_exit_threshold
        return state.mean_epe < self.config.early_exit_threshold

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

from repro.core.agent import OptimizeResult, run_episode
from repro.errors import ConfigError
from repro.geometry.layout import Clip
from repro.litho.simulator import LithographySimulator
from repro.rl.env import EnvState, OPCEnvironment
from repro.rl.imitation import quantize_to_move_set


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
        # The timer starts before the environment is built: runtime_s
        # includes fragmenting the clip and planning its stencils.
        started = time.perf_counter()
        env = OPCEnvironment(
            clip,
            self.simulator,
            initial_bias_nm=self.config.initial_bias_nm,
            epe_search_nm=self.config.epe_search_nm,
        )

        def advance(state: EnvState, step: int):
            actions = self._decide(state.seg_epe, step)
            return (actions, *env.step(state, actions))

        return run_episode(
            clip, env, advance, self.config, started, max_updates, early_exit
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

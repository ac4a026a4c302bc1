"""Trajectory bookkeeping and discounted returns (paper Eq. 1-2)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import DISCOUNT_GAMMA
from repro.errors import RLError


@dataclass(frozen=True)
class TrajectoryStep:
    """One transition: the chosen action indices and the layout EPE after
    the step (for Fig. 5-style curves)."""

    actions: np.ndarray
    epe_after: float


@dataclass
class Trajectory:
    """An episode ``s0 -a0-> s1 -a1-> ...`` (Eq. 1), as the actions taken
    and the EPE they reached."""

    epe_initial: float
    steps: list[TrajectoryStep] = field(default_factory=list)

    def append(self, step: TrajectoryStep) -> None:
        self.steps.append(step)

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def epe_curve(self) -> list[float]:
        """EPE-vs-step series starting at the initial mask (Fig. 5)."""
        return [self.epe_initial, *(s.epe_after for s in self.steps)]


def discounted_returns(rewards: list[float], gamma: float = DISCOUNT_GAMMA) -> np.ndarray:
    """Discounted return-to-go of a reward sequence (Eq. 2):
    ``G_t = sum_k gamma^k r_{t+k}`` computed backwards in O(n)."""
    if not 0 <= gamma <= 1:
        raise RLError(f"gamma must be in [0, 1], got {gamma}")
    out = np.zeros(len(rewards), dtype=np.float64)
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] + gamma * running
        out[t] = running
    return out

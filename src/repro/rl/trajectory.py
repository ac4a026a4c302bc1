"""Trajectory bookkeeping (paper Eq. 1)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np



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

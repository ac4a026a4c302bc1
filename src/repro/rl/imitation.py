"""Phase-1 training support: mimic another OPC engine (paper Section 3.3).

The teacher is any function mapping an environment state to action indices
(in practice the model-based engine standing in for Calibre).  We roll the
teacher forward for a limited number of steps and record the visited
states' actions; phase-1 training replays these actions through the policy
with the same Eq. 7 update, using the environment reward actually obtained
by the teacher's move.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.constants import MOVE_SET_NM
from repro.errors import RLError
from repro.rl.env import EnvState, OPCEnvironment

TeacherPolicy = Callable[[EnvState], np.ndarray]


def quantize_to_move_set(moves_nm: np.ndarray) -> np.ndarray:
    """Map nm movements to the nearest index of ``MOVE_SET_NM``.

    Shared by the imitation teacher and the model-based baseline so their
    decision rules quantize identically (first match wins on ties, as
    ``argmin`` guarantees).
    """
    move_set = np.asarray(MOVE_SET_NM, dtype=np.float64)
    moves = np.asarray(moves_nm, dtype=np.float64)
    return np.abs(moves[:, None] - move_set[None, :]).argmin(axis=1)


def greedy_teacher_actions(
    state: EnvState, gain: float = 0.5, deadband_nm: float = 1.2
) -> np.ndarray:
    """EPE-proportional feedback correction, quantized to the move set.

    This is the per-iteration behaviour of conventional model-based OPC:
    move each segment against its EPE, at most 2 nm per step.  Positive
    EPE (contour outside the target) pulls the segment inward.  Segments
    whose |EPE| is inside the deadband hold still — without it the high
    mask-error-enhancement factor of small patterns turns the quantized
    +/-1 nm moves into a limit cycle around the optimum.
    """
    if gain <= 0:
        raise RLError(f"gain must be positive, got {gain}")
    moves = np.clip(np.round(-gain * state.seg_epe), MOVE_SET_NM[0], MOVE_SET_NM[-1])
    moves[np.abs(state.seg_epe) < deadband_nm] = 0.0
    return quantize_to_move_set(moves)


def collect_teacher_actions_population(
    env: OPCEnvironment,
    steps: int,
    teacher: TeacherPolicy = greedy_teacher_actions,
    initial_states: list[EnvState] | None = None,
) -> list[list[tuple[EnvState, np.ndarray, float]]]:
    """Roll P teacher trajectories in lockstep for ``steps`` mask updates.

    Returns one list of ``(state, actions, reward)`` triples per
    trajectory — everything phase-1 imitation needs to replay it through
    a policy network.  ``initial_states`` (default: one ``env.reset()``)
    lets callers start from perturbed masks so the collected states
    cover both under- and over-sized masks.

    Each step evaluates the whole population through one batched litho +
    metrology call (:meth:`~repro.rl.env.OPCEnvironment.step_batch`), so
    collecting the imitation corpus costs ``steps`` batched evaluations
    instead of ``P * steps`` sequential ones.  Trajectory ``p`` of the
    result is bit-for-bit identical to rolling ``initial_states[p]``
    alone through :meth:`~repro.rl.env.OPCEnvironment.step`, because the
    batched transition itself is bit-for-bit equal to it.
    """
    if steps < 1:
        raise RLError(f"need at least one step, got {steps}")
    states = [env.reset()] if initial_states is None else list(initial_states)
    if not states:
        raise RLError("need at least one initial state")
    samples: list[list[tuple[EnvState, np.ndarray, float]]] = [
        [] for _ in states
    ]
    for _ in range(steps):
        actions = np.stack([np.asarray(teacher(state)) for state in states])
        stepped = env.step_batch(states, actions)
        for p, (next_state, reward) in enumerate(stepped):
            samples[p].append((states[p], actions[p], reward))
        states = [next_state for next_state, _ in stepped]
    return samples

"""Phase-1 training support: mimic another OPC engine (paper Section 3.3).

The teacher is the model-based engine standing in for Calibre: its
EPE-feedback rule (:func:`feedback_actions`, which MB-OPC runs every
iteration) taken at its first, undamped step.  We roll the teacher
forward for a limited number of steps and record the visited states'
actions; phase-1 training replays these actions through the policy
with the same Eq. 7 update.  Under reward weighting the update uses the
environment reward actually obtained by the teacher's move, which the
caller computes from the recorded next state
(:meth:`~repro.rl.env.OPCEnvironment.reward`).
"""

from __future__ import annotations

import numpy as np

from repro.constants import MOVE_SET_NM
from repro.errors import RLError
from repro.rl.env import EnvState, OPCEnvironment

FEEDBACK_GAIN = 0.5
"""EPE-to-move gain of the model-based rule at its first iteration."""
FEEDBACK_DEADBAND_NM = 1.2
"""|EPE| below which the model-based rule holds a segment still."""


def feedback_actions(
    seg_epe: np.ndarray, gain: float, deadband_nm: float, max_step_nm: float
) -> np.ndarray:
    """EPE-proportional feedback correction, quantized to the move set.

    This is the per-iteration behaviour of conventional model-based OPC:
    move each segment against its EPE, at most ``max_step_nm`` per step.
    Positive EPE (contour outside the target) pulls the segment inward.
    Segments whose |EPE| is inside the deadband hold still — without it
    the high mask-error-enhancement factor of small patterns turns the
    quantized +/-1 nm moves into a limit cycle around the optimum.
    Returns the index of each move in ``MOVE_SET_NM`` (the nearest one;
    the first on a tie, as ``argmin`` guarantees).
    """
    moves = np.clip(np.round(-gain * seg_epe), -max_step_nm, max_step_nm)
    moves[np.abs(seg_epe) < deadband_nm] = 0.0
    move_set = np.asarray(MOVE_SET_NM, dtype=np.float64)
    return np.abs(moves[:, None] - move_set[None, :]).argmin(axis=1)


def greedy_teacher_actions(state: EnvState) -> np.ndarray:
    """The imitation teacher: :func:`feedback_actions` on the state's
    segment EPE, capped at the move set's largest step."""
    return feedback_actions(
        state.seg_epe, FEEDBACK_GAIN, FEEDBACK_DEADBAND_NM, MOVE_SET_NM[-1]
    )


def collect_teacher_actions_population(
    env: OPCEnvironment,
    steps: int,
    initial_states: list[EnvState] | None = None,
) -> list[list[tuple[EnvState, np.ndarray, EnvState]]]:
    """Roll P :func:`greedy_teacher_actions` trajectories in lockstep for
    ``steps`` mask updates.

    Returns one list of ``(state, actions, next_state)`` triples per
    trajectory — everything phase-1 imitation needs to replay it through
    a policy network (and, under reward weighting, the pair whose
    :meth:`~repro.rl.env.OPCEnvironment.reward` weights it; nothing here
    reads a PV band).  ``initial_states`` (default: one ``env.reset()``)
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
    samples: list[list[tuple[EnvState, np.ndarray, EnvState]]] = [
        [] for _ in states
    ]
    for _ in range(steps):
        actions = np.stack([greedy_teacher_actions(state) for state in states])
        next_states = env.step_batch(states, actions)
        for p, next_state in enumerate(next_states):
            samples[p].append((states[p], actions[p], next_state))
        states = next_states
    return samples

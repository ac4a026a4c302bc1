"""Policy-gradient update (paper Eq. 7, Williams' REINFORCE).

``theta <- theta + alpha * r(s_t, a_t) * grad log pi(a_t | s_t)``

The policy emits one 5-way distribution per segment; the joint
log-probability of a batched action is the sum of per-segment log-probs.
Every engine trains on populations of trajectories: a single trajectory
is a population of one, so one selector, one update and one sampler
serve CAMO and RL-OPC at every population size.

The gradient is taken on whatever logits the caller passes.  Paper
Section 3.3 uses the *unmodulated* policy output; CAMO's RL phase
(with ``use_modulator``) instead passes the *modulated* logits, the
policy's logits plus the modulator's log-preference, so it
differentiates through the distribution it actually sampled from.
RL-OPC has no modulator and passes its policy's own logits.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RLError
from repro.nn.functional import log_softmax
from repro.nn.optim import Optimizer
from repro.nn.tensor import Tensor


def sample_actions(
    distributions: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One action index per row of ``(..., n_actions)`` distributions.

    Float rounding can leave a row's cumulative sum slightly below 1.0,
    in which case a draw above it would index past the move set; such a
    draw takes the last action.
    """
    cumulative = distributions.cumsum(axis=-1)
    draws = rng.random((*distributions.shape[:-1], 1))
    return np.minimum(
        (draws > cumulative).sum(axis=-1), distributions.shape[-1] - 1
    )


def select_log_probs_population(logits: Tensor, actions: np.ndarray) -> Tensor:
    """Per-trajectory joint log-probabilities for a population.

    Args:
        logits: ``(P, n_segments, n_actions)`` logits of the sampled
            distribution (one row per population member).
        actions: ``(P, n_segments)`` chosen action indices.

    Returns:
        ``(P,)`` tensor; entry ``p`` is ``sum_i log pi(a_pi | s_p)``.
    """
    actions = np.asarray(actions)
    if logits.ndim != 3 or actions.shape != logits.shape[:2]:
        raise RLError(
            f"logits {logits.shape} incompatible with actions {actions.shape}"
        )
    logp = log_softmax(logits, axis=-1)
    population, n = actions.shape
    picked = logp[
        np.arange(population)[:, None], np.arange(n)[None, :], actions
    ]
    return picked.sum(axis=1)


def population_gradient_step(
    optimizer: Optimizer,
    log_probs: Tensor,
    advantages: np.ndarray,
    max_grad_norm: float = 10.0,
) -> float:
    """One *accumulated* Eq. 7 step over a population of trajectories.

    Ascends the advantage-weighted mean ``(1/P) sum_p A_p log pi(a_p)``:
    one backward pass and one optimizer update replace P sequential
    steps.  The mean (not sum) keeps the step magnitude comparable across
    population sizes, so the learning rate need not be retuned with P.
    Returns the pre-clip gradient norm.
    """
    advantages = np.asarray(advantages, dtype=np.float64)
    if log_probs.ndim != 1 or advantages.shape != log_probs.shape:
        raise RLError(
            f"log_probs {log_probs.shape} incompatible with advantages "
            f"{advantages.shape}"
        )
    optimizer.zero_grad()
    loss = (log_probs * Tensor(-advantages / len(advantages))).sum()
    loss.backward()
    norm = optimizer.clip_grad_norm(max_grad_norm)
    optimizer.step()
    return norm

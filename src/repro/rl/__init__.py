"""Reinforcement-learning substrate for OPC.

The environment wraps a clip + lithography simulator as a Markov decision
process over batches of segment movements (paper Section 3.1); REINFORCE
implements the policy-gradient update of Eq. 7; the imitation module
provides the paper's phase-1 "mimic another OPC engine" training.
"""

from repro.rl.env import EnvState, OPCEnvironment
from repro.rl.reward import compute_reward
from repro.rl.trajectory import Trajectory, TrajectoryStep
from repro.rl.reinforce import (
    population_gradient_step,
    sample_actions,
    select_log_probs_population,
)
from repro.rl.imitation import (
    collect_teacher_actions_population,
    greedy_teacher_actions,
)

__all__ = [
    "EnvState",
    "OPCEnvironment",
    "compute_reward",
    "Trajectory",
    "TrajectoryStep",
    "population_gradient_step",
    "sample_actions",
    "select_log_probs_population",
    "collect_teacher_actions_population",
    "greedy_teacher_actions",
]

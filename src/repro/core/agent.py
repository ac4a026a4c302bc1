"""The CAMO agent: two-phase training (Algorithm 1) and modulated
inference (Eq. 6).

A :class:`CAMO` instance owns the policy network, the modulator and one
optimization context per clip (environment + segment graph + visit order,
all fixed for the clip's lifetime, as the paper prescribes).  Training
and inference both run the policy on populations of states; one state
is a population of one.

The optimize loop every edge-based engine (CAMO, RL-OPC, MB-OPC) runs
lives here too: :func:`run_episode` drives an engine's per-step
``advance`` callable under the shared :func:`early_exit_reached` rule
and returns an :class:`OptimizeResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.constants import MOVE_SET_NM
from repro.core.config import CamoConfig
from repro.core.modulator import Modulator
from repro.core.policy import CamoPolicy
from repro.errors import RLError
from repro.geometry.layout import Clip
from repro.graphs.construction import SegmentGraph, build_segment_graph
from repro.graphs.ordering import get_ordering
from repro.litho.simulator import LithographySimulator
from repro.nn.functional import softmax
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor, no_grad
from repro.nn.sage import mean_adjacency
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
from repro.rl.trajectory import Trajectory, TrajectoryStep
from repro.squish.features import NodeFeatureEncoder


@dataclass
class OptimizeResult:
    """Outcome of one CAMO inference run on a clip."""

    clip_name: str
    final_state: EnvState
    trajectory: Trajectory
    steps: int
    runtime_s: float
    early_exited: bool

    @property
    def epe_total(self) -> float:
        return self.final_state.total_epe

    @property
    def pvband(self) -> float:
        return self.final_state.pvband

    @property
    def epe_curve(self) -> list[float]:
        return self.trajectory.epe_curve


Advance = Callable[[EnvState, int], tuple[np.ndarray, EnvState, float]]
"""One engine decision plus its transition: ``(state, step)`` ->
``(actions, next_state, reward)``."""


def early_exit_reached(config, clip: Clip, state: EnvState) -> bool:
    """The convergence rule shared by every engine and by CAMO training.

    ``config`` carries ``early_exit_threshold`` and ``early_exit_mode``:
    the summed |EPE| per target pattern (``"per_target"``, via layers)
    or the mean |EPE| per measure point (``"per_point"``, metal layers)
    must fall below the threshold.
    """
    if config.early_exit_mode == "per_target":
        return state.total_epe / clip.target_count < config.early_exit_threshold
    return state.mean_epe < config.early_exit_threshold


def run_episode(
    clip: Clip,
    env: OPCEnvironment,
    advance: Advance,
    config,
    started: float,
    max_updates: int | None = None,
    early_exit: bool = True,
) -> OptimizeResult:
    """The optimize loop of every edge-based engine (CAMO, RL-OPC, MB-OPC).

    From ``env.reset()``, calls ``advance`` up to ``max_updates`` times
    (default ``config.max_updates``), checking :func:`early_exit_reached`
    before each step when ``early_exit`` is set.  ``started`` is the
    caller's ``time.perf_counter()`` reading, so ``runtime_s`` covers
    whatever set-up the engine did before the loop.
    """
    limit = config.max_updates if max_updates is None else max_updates
    state = env.reset()
    trajectory = Trajectory(epe_initial=state.total_epe)
    exited = False
    for step in range(limit):
        if early_exit and early_exit_reached(config, clip, state):
            exited = True
            break
        actions, state, reward = advance(state, step)
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
        steps=trajectory.length,
        runtime_s=time.perf_counter() - started,
        early_exited=exited,
    )


@dataclass
class _ClipContext:
    env: OPCEnvironment
    graph: SegmentGraph
    adjacency: np.ndarray
    order: list[int]
    teacher_samples: list | None = field(default=None, repr=False)


class CAMO:
    """Correlation-aware mask optimization with modulated RL."""

    def __init__(
        self, config: CamoConfig, simulator: LithographySimulator
    ) -> None:
        self.config = config
        self.simulator = simulator
        self.policy = CamoPolicy(config)
        self.modulator = Modulator(
            k=config.modulator_k,
            n=config.modulator_n,
            b=config.modulator_b,
            epe_scale=config.modulator_epe_scale,
            hold_bias=config.modulator_hold_bias,
            hold_width_nm=config.modulator_hold_width_nm,
            mode=config.modulator_mode,
            sigma=config.modulator_sigma,
        )
        self.encoder = NodeFeatureEncoder(
            window_nm=config.window_nm,
            out_size=config.encode_size,
            channels=config.channels,
        )
        self.optimizer = self._make_optimizer(config.learning_rate)
        self.rng = np.random.default_rng(config.seed)
        self._contexts: dict[str, _ClipContext] = {}

    def _make_optimizer(self, lr: float):
        if self.config.optimizer == "adam":
            return Adam(self.policy.parameters(), lr=lr)
        return SGD(self.policy.parameters(), lr=lr, momentum=self.config.momentum)

    # -- context management -----------------------------------------------------
    def context(self, clip: Clip) -> _ClipContext:
        """Environment + fixed graph/ordering for a clip (built once)."""
        ctx = self._contexts.get(clip.name)
        if ctx is None:
            env = OPCEnvironment(
                clip,
                self.simulator,
                initial_bias_nm=self.config.initial_bias_nm,
                epe_search_nm=self.config.epe_search_nm,
                reward_epsilon=self.config.reward_epsilon,
                reward_beta=self.config.reward_beta,
            )
            graph = build_segment_graph(
                env.segments, threshold_nm=self.config.graph_threshold_nm
            )
            ctx = _ClipContext(
                env=env,
                graph=graph,
                adjacency=mean_adjacency(graph),
                order=get_ordering(self.config.ordering)(graph),
            )
            self._contexts[clip.name] = ctx
        return ctx

    # -- policy evaluation ------------------------------------------------------
    def _population_logits(
        self, ctx: _ClipContext, states: list[EnvState]
    ) -> Tensor:
        """``(P, n, 5)`` policy logits for P states of one clip."""
        features = self.encoder.encode_all_population(
            [state.mask for state in states]
        )
        return self.policy(features, ctx.adjacency, ctx.order)

    def _gain(self, step: int) -> float:
        return 1.0 / (1.0 + self.config.modulator_gain_decay * step)

    def _population_distributions(
        self, logits_data: np.ndarray, seg_epes: np.ndarray, step: int
    ) -> np.ndarray:
        """Modulated (or raw) per-segment distributions for a ``(P, n, 5)``
        stack: the Eq. 6 decision rule."""
        temperature = max(self.config.policy_temperature, 1e-6)
        probs = softmax(Tensor(logits_data * (1.0 / temperature)), axis=-1).numpy()
        if not self.config.use_modulator:
            return probs
        # The modulator works row by row, so the population flattens.
        return self.modulator.modulate(
            probs.reshape(-1, probs.shape[-1]), seg_epes.ravel(),
            gain=self._gain(step),
        ).reshape(probs.shape)

    # -- training (Algorithm 1) -----------------------------------------------
    def train(self, clips: list[Clip], verbose: bool = False) -> dict[str, list[float]]:
        """Two-phase training; returns loss/reward histories."""
        if not clips:
            raise RLError("training requires at least one clip")
        history: dict[str, list[float]] = {"imitation_logp": [], "rl_reward": []}
        self._train_imitation(clips, history, verbose)
        self._train_rl(clips, history, verbose)
        return history

    def _train_imitation(
        self, clips: list[Clip], history: dict[str, list[float]], verbose: bool
    ) -> None:
        """Phase 1: mimic the model-based teacher (no modulator involved).

        Each teacher sample is a population of one and gets its own
        update.  With ``imitation_weighting="unit"`` every teacher action
        gets unit weight (behaviour cloning) — necessary so that the
        teacher's *hold* decisions near convergence, whose environment
        reward is ~0, are learned too.  ``"reward"`` reproduces Eq. 7
        literally.
        """
        for clip in clips:
            ctx = self.context(clip)
            if ctx.teacher_samples is None:
                # All bias-offset trajectories roll in lockstep: one
                # batched litho + metrology call per teacher step.
                starts = [
                    ctx.env.reset(bias_nm=self.config.initial_bias_nm + offset)
                    for offset in self.config.imitation_bias_offsets
                ]
                rollout = [
                    sample
                    for trajectory in collect_teacher_actions_population(
                        ctx.env,
                        steps=self.config.imitation_steps,
                        teacher=greedy_teacher_actions,
                        initial_states=starts,
                    )
                    for sample in trajectory
                ]
                # Teacher states never change across epochs: encode the
                # features (and the modulator's logit offset) once.
                ctx.teacher_samples = [
                    (
                        self.encoder.encode_all(state.mask)[None],
                        actions[None],
                        reward,
                        self.modulator.log_preference_batch(state.seg_epe),
                    )
                    for state, actions, reward in rollout
                ]
        unit_weight = self.config.imitation_weighting == "unit"
        modulated = self.config.use_modulator and self.config.train_on_modulated
        for epoch in range(self.config.imitation_epochs):
            epoch_logp = 0.0
            for clip in clips:
                ctx = self.context(clip)
                for features, actions, reward, log_pref in ctx.teacher_samples:
                    logits = self.policy(features, ctx.adjacency, ctx.order)
                    if modulated:
                        logits = logits + Tensor(log_pref)
                    log_probs = select_log_probs_population(logits, actions)
                    population_gradient_step(
                        self.optimizer,
                        log_probs,
                        np.array([1.0 if unit_weight else reward]),
                        max_grad_norm=self.config.max_grad_norm,
                    )
                    epoch_logp += float(log_probs.numpy()[0])
            history["imitation_logp"].append(epoch_logp)
            if verbose:
                print(f"[imitation] epoch {epoch}: sum log-prob {epoch_logp:.2f}")

    def _rl_optimizer(self):
        rl_lr = (
            self.config.rl_learning_rate
            if self.config.rl_learning_rate is not None
            else 0.3 * self.config.learning_rate
        )
        return self._make_optimizer(rl_lr)

    def _train_rl(
        self, clips: list[Clip], history: dict[str, list[float]], verbose: bool
    ) -> None:
        """Phase 2: modulated exploration with Eq. 7 updates, over a
        lockstep population of ``rl_population`` trajectories per clip.

        Per step: P modulated action samples from one batched policy
        forward, one batched litho + metrology transition
        (:meth:`~repro.rl.env.OPCEnvironment.step_batch`), and one
        accumulated policy-gradient step over the per-trajectory
        advantages.  An exponential-moving-average reward baseline per
        trajectory slot turns the raw reward into an advantage — plain
        REINFORCE with one sample is otherwise too noisy and can undo the
        imitation phase; each slot persists across clips and epochs.
        Trajectories that reach the early-exit criterion drop out of the
        batch individually.  Node features for the whole population are
        encoded through one shared scanline union per segment
        (:meth:`NodeFeatureEncoder.encode_all_population`).
        """
        population = self.config.rl_population
        offsets = self.config.rl_population_bias_offsets
        modulated = self.config.use_modulator and self.config.train_on_modulated
        rl_optimizer = self._rl_optimizer()
        baselines = np.zeros(population, dtype=np.float64)
        initialized = np.zeros(population, dtype=bool)
        for epoch in range(self.config.rl_epochs):
            epoch_reward = 0.0
            for clip in clips:
                ctx = self.context(clip)
                if offsets:
                    # Deterministic per-trajectory bias jitter decorrelates
                    # the population; all P starts are evaluated through
                    # one batched litho + metrology call.
                    states = ctx.env.reset_population(
                        [
                            self.config.initial_bias_nm
                            + offsets[p % len(offsets)]
                            for p in range(population)
                        ]
                    )
                else:
                    # reset() is deterministic, so the population shares
                    # one evaluated start state (EnvState is immutable);
                    # the trajectories diverge at the first sampled
                    # actions.
                    start = ctx.env.reset()
                    states = [start] * population
                active = list(range(population))
                for step in range(self.config.max_updates):
                    logits = self._population_logits(
                        ctx, [states[p] for p in active]
                    )
                    seg_epes = np.stack([states[p].seg_epe for p in active])
                    actions = sample_actions(
                        self._population_distributions(
                            logits.numpy(), seg_epes, step
                        ),
                        self.rng,
                    )
                    stepped = ctx.env.step_batch(
                        [states[p] for p in active], actions
                    )
                    rewards = np.asarray([reward for _, reward in stepped])
                    slots = np.asarray(active)
                    fresh = ~initialized[slots]
                    baselines[slots[fresh]] = rewards[fresh]
                    initialized[slots[fresh]] = True
                    advantages = rewards - baselines[slots]
                    baselines[slots] = 0.8 * baselines[slots] + 0.2 * rewards
                    # Eq. 7 uses the unmodulated policy output; with
                    # train_on_modulated we instead differentiate through
                    # the modulated distribution that was actually sampled.
                    if modulated:
                        log_pref = self.modulator.log_preference_batch(
                            seg_epes.ravel(), gain=self._gain(step)
                        )
                        logits = logits + Tensor(log_pref.reshape(logits.shape))
                    population_gradient_step(
                        rl_optimizer,
                        select_log_probs_population(logits, actions),
                        advantages,
                        max_grad_norm=self.config.max_grad_norm,
                    )
                    epoch_reward += float(rewards.sum())
                    survivors = []
                    for index, p in enumerate(active):
                        states[p] = stepped[index][0]
                        if not early_exit_reached(self.config, clip, states[p]):
                            survivors.append(p)
                    active = survivors
                    if not active:
                        break
            history["rl_reward"].append(epoch_reward)
            if verbose:
                print(f"[rl] epoch {epoch}: total reward {epoch_reward:.3f}")

    # -- inference (Eq. 6) -----------------------------------------------------
    def optimize(
        self,
        clip: Clip,
        max_updates: int | None = None,
        early_exit: bool = True,
    ) -> OptimizeResult:
        """Run modulated greedy OPC on one clip."""
        started = time.perf_counter()
        ctx = self.context(clip)
        return run_episode(
            clip, ctx.env, partial(self._advance, ctx), self.config,
            started, max_updates, early_exit,
        )

    def _advance(
        self, ctx: _ClipContext, state: EnvState, step: int
    ) -> tuple[np.ndarray, EnvState, float]:
        """One greedy Eq. 6 decision and its transition."""
        with no_grad():
            logits = self._population_logits(ctx, [state])
        actions = self._population_distributions(
            logits.numpy(), state.seg_epe[None], step
        )[0].argmax(axis=1)
        if not self.config.candidate_lookahead:
            return (actions, *ctx.env.step(state, actions))
        # Score the policy's move against the five uniform moves in ONE
        # batched litho call and keep the best-reward candidate.
        # Duplicate rows are scored once, and the all-hold candidate is a
        # free no-op: its next state is the current one and its reward
        # exactly 0, so it never needs a simulation.
        hold_row = np.full(
            ctx.env.n_segments, MOVE_SET_NM.index(0), dtype=np.int64
        )
        seen = {hold_row.tobytes()}
        rows = []
        for row in (actions, *ctx.env.uniform_move_candidates()):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(row)
        scored = ctx.env.score_moves(state, np.stack(rows))
        # Hold goes last so reward ties keep the policy's move.
        options = [
            (row, nxt, rew) for row, (nxt, rew) in zip(rows, scored)
        ] + [(hold_row, state, 0.0)]
        return max(options, key=lambda o: o[2])

    # -- persistence ------------------------------------------------------------
    def save(self, path: str) -> None:
        self.policy.save(path)

    def load(self, path: str) -> None:
        self.policy.load(path)

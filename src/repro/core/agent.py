"""The CAMO agent: two-phase training (Algorithm 1) and modulated
inference (Eq. 6).

A :class:`CAMO` instance owns the policy network and the modulator, and
hands out one optimization context per clip object (environment +
segment graph + visit order, all fixed for the clip, as the paper
prescribes) for as long as something uses it.  Training
and inference both run the policy on populations of states; one state
is a population of one.  RL-OPC (:class:`repro.baselines.rlopc.RLOPC`)
is a subclass that swaps in its own policy and features and runs without
the modulator, so both learned engines train and infer through the
same loops.

The optimize loop every edge-based engine (CAMO, RL-OPC, MB-OPC) runs
lives here too: :func:`run_episode` drives an engine's per-step
``advance`` callable under the shared :func:`early_exit_reached` rule
and returns an :class:`OptimizeResult`.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

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
from repro.rl.imitation import collect_teacher_actions_population
from repro.rl.reinforce import (
    population_gradient_step,
    sample_actions,
    select_log_probs_population,
)
from repro.rl.trajectory import Trajectory, TrajectoryStep
from repro.squish.features import NodeFeatureEncoder, PackedFeatures

IMITATION_BIAS_OFFSETS_NM = (0.0, 5.0, -4.0)
"""Initial-bias offsets of the teacher rollouts: under- and over-sized
starting masks, so the policy sees both EPE signs."""
IMITATION_STEPS = 5
"""Teacher steps per rollout (paper: five-step trajectories)."""


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


Advance = Callable[[EnvState, int], tuple[np.ndarray, EnvState]]
"""One engine decision plus its transition: ``(state, step)`` ->
``(actions, next_state)``."""


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
        actions, state = advance(state, step)
        trajectory.append(
            TrajectoryStep(actions=actions, epe_after=state.total_epe)
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
    """What stays fixed for a clip across training and inference: its
    environment, segment graph, mean adjacency and visit order.

    Training artefacts are not kept here: the teacher corpus lives only
    for the imitation phase that builds it (:meth:`CAMO._teacher_corpus`).
    """

    env: OPCEnvironment
    graph: SegmentGraph
    adjacency: np.ndarray
    order: list[int]


class CAMO:
    """Correlation-aware mask optimization with modulated RL."""

    # What a subclass swaps: the policy built from the config and the
    # squish channels it reads.
    policy_class = CamoPolicy
    feature_channels = 6

    def __init__(
        self, config: CamoConfig, simulator: LithographySimulator
    ) -> None:
        self.config = config
        self.simulator = simulator
        self.policy = self.policy_class(config)
        self.modulator = Modulator(
            k=config.modulator_k,
            n=config.modulator_n,
            b=config.modulator_b,
            epe_scale=config.modulator_epe_scale,
            mode=config.modulator_mode,
            sigma=config.modulator_sigma,
        ) if config.use_modulator else None
        self.encoder = NodeFeatureEncoder(
            window_nm=config.window_nm, out_size=config.encode_size,
            channels=self.feature_channels,
        )
        self.rng = np.random.default_rng(config.seed)
        # Keyed by id(clip): a live context's environment holds its clip,
        # so no other clip can take that id while the entry exists.
        self._contexts: "weakref.WeakValueDictionary[int, _ClipContext]" = (
            weakref.WeakValueDictionary()
        )

    def _make_optimizer(self, lr: float):
        if self.config.optimizer == "adam":
            return Adam(self.policy.parameters(), lr=lr)
        return SGD(self.policy.parameters(), lr=lr, momentum=self.config.momentum)

    # -- context management -----------------------------------------------------
    def context(self, clip: Clip) -> _ClipContext:
        """Environment + fixed graph/ordering for a clip object.

        Contexts are keyed by the clip object, not its name: two clips
        that share a name get their own.  The engine holds a context
        only weakly, so it lives while a caller, a :meth:`train` call or
        an :meth:`optimize` run still uses it; while one does, the same
        clip gets the same context back.
        """
        ctx = self._contexts.get(id(clip))
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
            self._contexts[id(clip)] = ctx
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
        # Held for the whole call, so both phases and every epoch reuse
        # one context per clip.
        contexts = [self.context(clip) for clip in clips]
        self._train_imitation(contexts, history, verbose)
        self._train_rl(contexts, history, verbose)
        return history

    def _teacher_corpus(self, ctx: _ClipContext) -> list[tuple]:
        """One clip's imitation samples: ``(features, actions, weight,
        log_pref)`` per teacher step, from one rollout of
        ``IMITATION_STEPS`` per bias offset.

        The trajectories roll in lockstep (one batched litho + metrology
        call per teacher step).  Teacher states never change across
        epochs, so each sample's features (and the modulator's logit
        offset) are encoded and its weight taken once, here.  The
        features are kept as :class:`PackedFeatures` of the ``(n,
        channels, s, s)`` encode, about 1/20 of its bytes, and unpacked
        bit for bit right before each forward.
        """
        unit_weight = self.config.imitation_weighting == "unit"
        starts = [
            ctx.env.reset(bias_nm=self.config.initial_bias_nm + offset)
            for offset in IMITATION_BIAS_OFFSETS_NM
        ]
        rollout = [
            sample
            for trajectory in collect_teacher_actions_population(
                ctx.env, steps=IMITATION_STEPS, initial_states=starts,
            )
            for sample in trajectory
        ]
        return [
            (
                PackedFeatures.of(self.encoder.encode_all(state.mask)),
                actions[None],
                1.0 if unit_weight else ctx.env.reward(state, next_state),
                self.modulator.log_preference_batch(state.seg_epe)
                if self.config.use_modulator else None,
            )
            for state, actions, next_state in rollout
        ]

    def _train_imitation(
        self,
        contexts: list[_ClipContext],
        history: dict[str, list[float]],
        verbose: bool,
    ) -> None:
        """Phase 1: mimic the model-based teacher.

        With ``use_modulator`` the loss is taken on the *modulated*
        logits (the policy's plus the modulator's log-preference), so the
        policy learns the residual the modulator does not already provide
        and training matches the Eq. 6 decision rule.  Each teacher
        sample is a population of one and gets its own update.  With
        ``imitation_weighting="unit"`` every teacher action gets unit
        weight (behaviour cloning) — necessary so that the teacher's
        *hold* decisions near convergence, whose environment reward is
        ~0, are learned too.  ``"reward"`` reproduces Eq. 7 literally.

        The teacher corpus and the optimizer are locals: both are
        dropped when the phase ends, and every call starts from fresh
        optimizer moments, as :meth:`_train_rl` does.
        """
        corpus: dict[int, list[tuple]] = {}
        for ctx in contexts:
            if id(ctx) not in corpus:
                corpus[id(ctx)] = self._teacher_corpus(ctx)
        optimizer = self._make_optimizer(self.config.learning_rate)
        for epoch in range(self.config.imitation_epochs):
            epoch_logp = 0.0
            for ctx in contexts:
                for features, actions, weight, log_pref in corpus[id(ctx)]:
                    logits = self.policy(
                        features.dense()[None], ctx.adjacency, ctx.order
                    )
                    if self.config.use_modulator:
                        logits = logits + Tensor(log_pref)
                    log_probs = select_log_probs_population(logits, actions)
                    population_gradient_step(
                        optimizer, log_probs, np.array([weight])
                    )
                    epoch_logp += float(log_probs.numpy()[0])
            history["imitation_logp"].append(epoch_logp)
            if verbose:
                print(f"[imitation] epoch {epoch}: sum log-prob {epoch_logp:.2f}")

    def _train_rl(
        self,
        contexts: list[_ClipContext],
        history: dict[str, list[float]],
        verbose: bool,
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
        # Single-sample REINFORCE is noisier than behaviour cloning.
        rl_optimizer = self._make_optimizer(0.3 * self.config.learning_rate)
        baselines = np.zeros(population, dtype=np.float64)
        initialized = np.zeros(population, dtype=bool)
        for epoch in range(self.config.rl_epochs):
            epoch_reward = 0.0
            for ctx in contexts:
                # reset() is deterministic, so the population shares one
                # evaluated start state (EnvState is immutable); the
                # trajectories diverge at the first sampled actions.
                states = [ctx.env.reset()] * population
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
                    rewards = np.asarray([
                        ctx.env.reward(states[p], nxt)
                        for p, nxt in zip(active, stepped)
                    ])
                    slots = np.asarray(active)
                    fresh = ~initialized[slots]
                    baselines[slots[fresh]] = rewards[fresh]
                    initialized[slots[fresh]] = True
                    advantages = rewards - baselines[slots]
                    baselines[slots] = 0.8 * baselines[slots] + 0.2 * rewards
                    # Eq. 7 uses the unmodulated policy output; we instead
                    # differentiate through the modulated distribution
                    # that was actually sampled.
                    if self.config.use_modulator:
                        log_pref = self.modulator.log_preference_batch(
                            seg_epes.ravel(), gain=self._gain(step)
                        )
                        logits = logits + Tensor(log_pref.reshape(logits.shape))
                    population_gradient_step(
                        rl_optimizer,
                        select_log_probs_population(logits, actions),
                        advantages,
                    )
                    epoch_reward += float(rewards.sum())
                    survivors = []
                    for index, p in enumerate(active):
                        states[p] = stepped[index]
                        if not early_exit_reached(
                            self.config, ctx.env.clip, states[p]
                        ):
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
        # The last state this run encoded and its logits; a hold hands
        # the same state object back, so its logits are reused.
        last: list = [None, None]
        return run_episode(
            clip, ctx.env, partial(self._advance, ctx, last), self.config,
            started, max_updates, early_exit,
        )

    def _advance(
        self, ctx: _ClipContext, last: list, state: EnvState, step: int
    ) -> tuple[np.ndarray, EnvState]:
        """One greedy Eq. 6 decision and its transition.

        ``last`` is ``[state, logits]`` of the previous decision; the
        policy runs only on a state object it has not seen.  The
        modulated distribution is recomputed every step: its gain
        depends on ``step``.
        """
        if last[0] is not state:
            with no_grad():
                last[:] = state, self._population_logits(ctx, [state]).numpy()
        actions = self._population_distributions(
            last[1], state.seg_epe[None], step
        )[0].argmax(axis=1)
        return actions, ctx.env.step(state, actions)

    # -- persistence ------------------------------------------------------------
    def save(self, path: str) -> None:
        self.policy.save(path)

    def load(self, path: str) -> None:
        self.policy.load(path)

"""The OPC Markov decision process.

State: the up-to-date mask plus the target patterns (paper Section 3.1),
materialized as a :class:`~repro.geometry.mask_edit.MaskState` together
with its lithography evaluation.  An action moves every segment by one of
{-2, -1, 0, +1, +2} nm; the environment re-simulates and returns the next
state.  The Eq. 3 reward of a transition, :meth:`OPCEnvironment.reward`,
is computed only where it is consumed (RL updates, reward-weighted
imitation, :meth:`OPCEnvironment.score_moves`).

Every evaluation is one :meth:`LithographySimulator.simulate_batch` call
for the whole batch of masks, which takes each mask state's slabs
(:attr:`~repro.geometry.mask_edit.MaskState.slabs`, computed from its
offsets by array operations over the clip's
:class:`~repro.geometry.mask_edit.FragmentArrays`, built once): their
pupil band comes straight from the geometry, with no ``Polygon``
object, no raster and no full-grid FFT.  The environment builds the
stencil plans of its measure points and control points once per clip,
and plans their nominal lift (pixel union, lattice, phases) once with
them; inside the call the nominal corner is lifted only at those plans'
pixels (EPE and segment EPE).  Nothing else is imaged up front: the PV band
(:attr:`EnvState.pvband`) images the batch's defocus corner and
resamples that state's row to the full grid on its first read, and the
dense nominal aerial is built only if a caller reads
``EnvState.litho.aerial``.  A state whose PV band nobody reads — an
MB-OPC step, a greedy CAMO step — never pays for the defocus corner.

A hold is free: a transition whose clamped offsets equal the current
ones (every segment holds, or pushes against ``max_offset``) returns the
input :class:`EnvState` object itself, with no litho or metrology call.
Evaluation is deterministic, so the reused state is bit for bit what a
re-evaluation would give, and its cached PV band is not imaged again.

Candidate-action batching: :meth:`OPCEnvironment.score_moves` evaluates a
whole matrix of candidate action vectors through one batched call
instead of one simulator invocation per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.constants import (
    MAX_SEGMENT_OFFSET_NM,
    MOVE_SET_NM,
    REWARD_BETA,
    REWARD_EPSILON,
)
from repro.errors import RLError
from repro.geometry.layout import Clip
from repro.geometry.mask_edit import FragmentArrays, MaskState
from repro.geometry.raster import (
    Grid,
    rasterize,  # perfbench's layer tracer hooks it here
)
from repro.geometry.segmentation import Segment, fragment_clip
from repro.litho.simulator import LithographySimulator, LithoResult
from repro.metrology.contour import plan_contour_stencils
from repro.metrology.epe import (
    EPEReport,
    measure_epe,  # perfbench's layer tracer hooks it here
    measure_epe_batch,  # perfbench's layer tracer hooks it here
    measure_epe_grouped_sparse,
    measure_stencil_plan,
    segment_epe,  # perfbench's layer tracer hooks it here
    segment_epe_batch,  # perfbench's layer tracer hooks it here
)
from repro.metrology.pvband import (
    pvband_area,  # perfbench's layer tracer hooks it here
    pvband_area_batch,
)
from repro.rl.reward import compute_reward


@dataclass(frozen=True)
class EnvState:
    """One evaluated point of the OPC trajectory."""

    mask: MaskState
    litho: LithoResult
    epe: EPEReport
    seg_epe: np.ndarray

    @cached_property
    def pvband(self) -> float:
        """PV-band area (nm^2), measured on first read: reading it images
        the defocus corner of this state's litho batch."""
        return float(pvband_area_batch(
            self.litho.inner[None], self.litho.outer[None],
            self.litho.grid.pixel_nm,
        )[0])

    @property
    def total_epe(self) -> float:
        return self.epe.total_abs

    @property
    def mean_epe(self) -> float:
        return self.epe.mean_abs


class OPCEnvironment:
    """MDP over batched segment movements for one clip."""

    def __init__(
        self,
        clip: Clip,
        simulator: LithographySimulator,
        initial_bias_nm: float = 0.0,
        max_offset_nm: int = MAX_SEGMENT_OFFSET_NM,
        epe_search_nm: float = 40.0,
        reward_epsilon: float = REWARD_EPSILON,
        reward_beta: float = REWARD_BETA,
    ) -> None:
        self.clip = clip
        self.simulator = simulator
        self.initial_bias_nm = initial_bias_nm
        self.max_offset_nm = max_offset_nm
        self.epe_search_nm = epe_search_nm
        self.reward_epsilon = reward_epsilon
        self.reward_beta = reward_beta
        self.segments: list[Segment] = fragment_clip(clip)
        self.fragments = FragmentArrays.of(clip, self.segments)
        self.grid: Grid = simulator.grid_for(clip)
        # Stencil plans of the measure points (EPE) and of every
        # segment's control point (segment EPE); None when empty.
        self._plans = (
            measure_stencil_plan(self.grid, self.segments, epe_search_nm),
            plan_contour_stencils(
                self.grid,
                np.asarray([s.control for s in self.segments], dtype=np.float64),
                np.asarray([s.normal for s in self.segments], dtype=np.float64),
                epe_search_nm,
            ) if self.segments else None,
        )
        # Their nominal lift (pixel union, lattice, phases), planned once.
        self._lift = simulator.nominal_lift(
            self.grid, [plan for plan in self._plans if plan is not None]
        )

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_actions(self) -> int:
        return len(MOVE_SET_NM)

    # -- state construction -----------------------------------------------------
    def evaluate(self, mask: MaskState) -> EnvState:
        """Run lithography + metrology for a mask state."""
        return self.evaluate_batch([mask])[0]

    def evaluate_batch(self, masks: Sequence[MaskState]) -> list[EnvState]:
        """Evaluate several mask states: one batched litho call followed
        by one metrology pass.

        The litho call takes the masks' cached slabs (the pupil band
        comes straight from them, and no ``Polygon`` is built) and lifts the nominal intensity at the measure
        and control points' stencil pixels (EPE and segment EPE need
        nothing else); the defocus corner waits for a PV-band read.
        Results are bit-for-bit identical to mapping :meth:`evaluate`
        over ``masks``.
        """
        if not masks:
            raise RLError("evaluate_batch needs at least one mask state")
        lithos = self.simulator.simulate_batch(
            [mask.slabs for mask in masks], self.grid, self._lift
        )
        measured, controlled = (plan is not None for plan in self._plans)
        # Both plans share one search window, so every profile of the
        # batch resolves in one vectorized pass.
        reports = measure_epe_grouped_sparse(
            [litho.sparse[0] if measured else None for litho in lithos]
            + [litho.sparse[-1] for litho in lithos if controlled],
            self.simulator.config.threshold,
        )
        segs = (
            np.stack([report.values for report in reports[len(masks):]])
            if controlled else np.zeros((len(masks), 0))
        )
        return [
            EnvState(mask=mask, litho=litho, epe=epe, seg_epe=seg)
            for mask, litho, epe, seg in zip(masks, lithos, reports, segs)
        ]

    def _initial_mask(self, bias_nm: float | None = None) -> MaskState:
        return MaskState.initial(
            self.clip,
            self.segments,
            bias_nm=self.initial_bias_nm if bias_nm is None else bias_nm,
            max_offset=self.max_offset_nm,
            fragments=self.fragments,
        )

    def reset(self, bias_nm: float | None = None) -> EnvState:
        """Initial state; ``bias_nm`` overrides the configured initial bias
        (used to diversify imitation-phase starting points)."""
        return self.evaluate(self._initial_mask(bias_nm))

    def reset_population(self, bias_nms: Sequence[float]) -> list[EnvState]:
        """Evaluated initial states for P per-trajectory start biases.

        All P starting masks go through one batched litho + metrology
        call; entry ``p`` is bit-for-bit identical to
        ``reset(bias_nm=bias_nms[p])``.  Used to diversify population
        training starts (deterministic bias jitter)."""
        if not len(bias_nms):
            raise RLError("reset_population needs at least one bias")
        return self.evaluate_batch(
            [self._initial_mask(bias) for bias in bias_nms]
        )

    # -- transitions ------------------------------------------------------------
    def _validate_actions(self, actions: np.ndarray) -> np.ndarray:
        if actions.shape[-1] != self.n_segments:
            raise RLError(
                f"expected {self.n_segments} actions, got shape {actions.shape}"
            )
        if actions.min() < 0 or actions.max() >= self.n_actions:
            raise RLError("action indices must be in [0, 5)")
        return actions

    def reward(self, state: EnvState, next_state: EnvState) -> float:
        """The Eq. 3 reward of the transition ``state -> next_state``.

        It reads both states' PV band, so the first reward of a state
        images its defocus corner."""
        return compute_reward(
            epe_before=state.total_epe,
            epe_after=next_state.total_epe,
            pvb_before=state.pvband,
            pvb_after=next_state.pvband,
            epsilon=self.reward_epsilon,
            beta=self.reward_beta,
        )

    def step(self, state: EnvState, action_indices: np.ndarray) -> EnvState:
        """Apply one movement index (0..4) per segment; return the next
        state (its reward is :meth:`reward`).  A move that leaves every
        offset unchanged returns ``state`` itself."""
        actions = np.asarray(action_indices)
        if actions.ndim != 1:
            raise RLError(
                f"expected {self.n_segments} actions, got shape {actions.shape}"
            )
        return self._transition([state], actions[None])[0]

    def step_batch(
        self,
        states: Sequence[EnvState],
        action_indices: np.ndarray,
    ) -> list[EnvState]:
        """Advance P states by one action vector each, in lockstep.

        ``action_indices`` is ``(P, n_segments)``; row ``p`` is applied to
        ``states[p]``.  One batched litho call plus one batched metrology
        call cover the whole population, and every next state is
        bit-for-bit identical to :meth:`step` on that state alone.  A row
        that leaves every offset unchanged returns its input state object
        and is left out of the batch.  This is the transition primitive of
        population-based training and lockstep teacher rollouts.
        """
        actions = np.asarray(action_indices)
        if actions.ndim != 2 or actions.shape[0] != len(states) or not len(states):
            raise RLError(
                f"expected ({len(states)}, {self.n_segments}) actions, "
                f"got shape {actions.shape}"
            )
        return self._transition(states, actions)

    def _transition(
        self, states: Sequence[EnvState], actions: np.ndarray
    ) -> list[EnvState]:
        """Next states of ``states`` under ``(P, n_segments)`` movement
        indices: the rows that move any offset are evaluated in one
        batch, and every other row returns its input state.  ``step``
        calls this, not :meth:`step_batch`, so perfbench's layer tracer
        counts each env step once."""
        self._validate_actions(actions)
        move_set = np.asarray(MOVE_SET_NM, dtype=np.float64)
        next_states = list(states)
        moved = {}
        for index, (state, row) in enumerate(zip(states, actions)):
            mask = state.mask.moved(move_set[row])
            if not np.array_equal(mask.offsets, state.mask.offsets):
                moved[index] = mask
        if moved:
            evaluated = self.evaluate_batch(list(moved.values()))
            for index, next_state in zip(moved, evaluated):
                next_states[index] = next_state
        return next_states

    # -- batched candidate scoring ----------------------------------------------
    def score_moves(
        self, state: EnvState, candidate_actions: np.ndarray
    ) -> list[tuple[EnvState, float]]:
        """Evaluate A candidate action vectors in one batched litho call.

        ``candidate_actions`` is ``(A, n_segments)`` movement indices;
        returns one ``(next_state, reward)`` pair per candidate, each
        bit-for-bit identical to :meth:`step` for that candidate and its
        :meth:`reward`.  A candidate that leaves every offset unchanged
        returns ``state`` itself, with reward exactly 0.
        """
        candidates = self._validate_candidates(candidate_actions)
        return [
            (nxt, self.reward(state, nxt))
            for nxt in self.step_batch([state] * len(candidates), candidates)
        ]

    def _validate_candidates(self, candidate_actions: np.ndarray) -> np.ndarray:
        candidates = np.asarray(candidate_actions)
        if candidates.ndim != 2 or candidates.shape[0] == 0:
            raise RLError(
                "candidate actions must be a non-empty (A, n_segments) "
                f"matrix, got shape {candidates.shape}"
            )
        self._validate_actions(candidates)
        return candidates

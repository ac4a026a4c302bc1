"""The OPC Markov decision process.

State: the up-to-date mask plus the target patterns (paper Section 3.1),
materialized as a :class:`~repro.geometry.mask_edit.MaskState` together
with its lithography evaluation.  An action moves every segment by one of
{-2, -1, 0, +1, +2} nm; the environment re-simulates and returns the Eq. 3
reward.

Candidate-action batching: :meth:`OPCEnvironment.score_moves` evaluates a
whole matrix of candidate action vectors — e.g. the five uniform segment
moves from :meth:`OPCEnvironment.uniform_move_candidates` — through one
batched lithography call (:meth:`LithographySimulator.simulate_batch`)
instead of one simulator invocation per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.geometry.mask_edit import MaskState
from repro.geometry.raster import Grid, rasterize
from repro.geometry.segmentation import Segment, fragment_clip
from repro.litho.simulator import LithographySimulator, LithoResult
from repro.metrology.epe import (
    EPEReport,
    measure_epe,
    measure_epe_batch,
    measure_epe_grouped_sparse,
    measure_stencil_plan,
    segment_epe,
    segment_epe_batch,
)
from repro.metrology.pvband import pvband_area, pvband_area_batch
from repro.rl.reward import compute_reward


@dataclass(frozen=True)
class EnvState:
    """One evaluated point of the OPC trajectory."""

    mask: MaskState
    litho: LithoResult
    epe: EPEReport
    seg_epe: np.ndarray
    pvband: float

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
        self.grid: Grid = simulator.grid_for(clip)
        self._epe_plan_built = False
        self._epe_plan = None

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_actions(self) -> int:
        return len(MOVE_SET_NM)

    # -- state construction -----------------------------------------------------
    def _metrology(self, mask: MaskState, litho: LithoResult) -> EnvState:
        """EPE / PV-band measurement shared by all evaluation paths."""
        threshold = self.simulator.config.threshold
        epe = measure_epe(
            litho.aerial, self.grid, self.segments, threshold,
            search_nm=self.epe_search_nm,
        )
        seg = segment_epe(
            litho.aerial, self.grid, self.segments, threshold,
            search_nm=self.epe_search_nm,
        )
        pvb = pvband_area(litho.inner, litho.outer, self.grid.pixel_nm)
        return EnvState(mask=mask, litho=litho, epe=epe, seg_epe=seg, pvband=pvb)

    def _metrology_batch(
        self, masks: Sequence[MaskState], lithos: list[LithoResult]
    ) -> list[EnvState]:
        """Batched metrology: one vectorized EPE/PV-band pass for all B
        lithography results, bit-for-bit equal to mapping
        :meth:`_metrology` over them."""
        threshold = self.simulator.config.threshold
        aerials = np.stack([litho.aerial for litho in lithos])
        reports = measure_epe_batch(
            aerials, self.grid, self.segments, threshold,
            search_nm=self.epe_search_nm,
        )
        segs = segment_epe_batch(
            aerials, self.grid, self.segments, threshold,
            search_nm=self.epe_search_nm,
        )
        pvbs = pvband_area_batch(
            np.stack([litho.inner for litho in lithos]),
            np.stack([litho.outer for litho in lithos]),
            self.grid.pixel_nm,
        )
        return [
            EnvState(mask=mask, litho=litho, epe=epe, seg_epe=seg, pvband=float(pvb))
            for mask, litho, epe, seg, pvb in zip(
                masks, lithos, reports, segs, pvbs
            )
        ]

    def evaluate(self, mask: MaskState) -> EnvState:
        """Run lithography + metrology for a mask state."""
        return self._metrology(mask, self.simulator.simulate_state(mask, self.grid))

    def evaluate_batch(self, masks: Sequence[MaskState]) -> list[EnvState]:
        """Evaluate several mask states: one batched litho call followed
        by one batched metrology call.

        Results are bit-for-bit identical to mapping :meth:`evaluate`
        over ``masks``.
        """
        if not masks:
            raise RLError("evaluate_batch needs at least one mask state")
        images = np.stack(
            [rasterize(mask.mask_polygons(), self.grid) for mask in masks]
        )
        results = self.simulator.simulate_batch(images, self.grid)
        return self._metrology_batch(masks, results)

    def _initial_mask(self, bias_nm: float | None = None) -> MaskState:
        return MaskState.initial(
            self.clip,
            self.segments,
            bias_nm=self.initial_bias_nm if bias_nm is None else bias_nm,
            max_offset=self.max_offset_nm,
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

    def _reward(self, state: EnvState, next_state: EnvState) -> float:
        return compute_reward(
            epe_before=state.total_epe,
            epe_after=next_state.total_epe,
            pvb_before=state.pvband,
            pvb_after=next_state.pvband,
            epsilon=self.reward_epsilon,
            beta=self.reward_beta,
        )

    def step(
        self, state: EnvState, action_indices: np.ndarray
    ) -> tuple[EnvState, float]:
        """Apply one movement index (0..4) per segment; return next state
        and the Eq. 3 reward."""
        actions = np.asarray(action_indices)
        if actions.ndim != 1:
            raise RLError(
                f"expected {self.n_segments} actions, got shape {actions.shape}"
            )
        self._validate_actions(actions)
        deltas = np.asarray(MOVE_SET_NM, dtype=np.float64)[actions]
        next_state = self.evaluate(state.mask.moved(deltas))
        return next_state, self._reward(state, next_state)

    def step_batch(
        self,
        states: Sequence[EnvState],
        action_indices: np.ndarray,
    ) -> list[tuple[EnvState, float]]:
        """Advance P states by one action vector each, in lockstep.

        ``action_indices`` is ``(P, n_segments)``; row ``p`` is applied to
        ``states[p]``.  One batched litho call plus one batched metrology
        call cover the whole population, and every ``(next_state,
        reward)`` pair is bit-for-bit identical to :meth:`step` on that
        state alone.  This is the transition primitive of
        population-based training and lockstep teacher rollouts.
        """
        actions = np.asarray(action_indices)
        if actions.ndim != 2 or actions.shape[0] != len(states) or not len(states):
            raise RLError(
                f"expected ({len(states)}, {self.n_segments}) actions, "
                f"got shape {actions.shape}"
            )
        self._validate_actions(actions)
        move_set = np.asarray(MOVE_SET_NM, dtype=np.float64)
        masks = [
            state.mask.moved(move_set[row]) for state, row in zip(states, actions)
        ]
        next_states = self.evaluate_batch(masks)
        return [
            (nxt, self._reward(state, nxt))
            for state, nxt in zip(states, next_states)
        ]

    # -- batched candidate scoring ----------------------------------------------
    def uniform_move_candidates(self) -> np.ndarray:
        """``(n_actions, n_segments)`` matrix: candidate a moves *every*
        segment by ``MOVE_SET_NM[a]``."""
        return np.repeat(
            np.arange(self.n_actions)[:, None], self.n_segments, axis=1
        )

    def score_moves(
        self,
        state: EnvState,
        candidate_actions: np.ndarray,
        *,
        screener=None,
        screen_keep: int = 1,
    ) -> list[tuple[EnvState, float] | None]:
        """Evaluate A candidate action vectors in one batched litho call.

        ``candidate_actions`` is ``(A, n_segments)`` movement indices;
        returns one ``(next_state, reward)`` pair per candidate, each
        bit-for-bit identical to what :meth:`step` would have produced
        for that candidate.

        ``screener`` opts into learned-surrogate pre-screening: an object
        with ``score_candidates(env, state, candidates) -> (A,) totals``
        (lower is better, e.g. :class:`~repro.surrogate.engine.
        SurrogateScreener`) ranks the candidates cheaply, and only the
        best ``screen_keep`` survivors get the exact batched evaluation.
        The returned list still has one slot per candidate, with ``None``
        at screened-out indices — every non-``None`` entry comes from the
        exact engine, so reported metrology never depends on surrogate
        numbers (the screening-vs-reporting discipline).
        """
        candidates = self._validate_candidates(candidate_actions)
        if screener is None:
            return self.step_batch([state] * len(candidates), candidates)
        keep = int(screen_keep)
        if keep < 1:
            raise RLError(f"screen_keep must be >= 1, got {screen_keep}")
        keep = min(keep, len(candidates))
        totals = np.asarray(
            screener.score_candidates(self, state, candidates), dtype=np.float64
        )
        if totals.shape != (len(candidates),):
            raise RLError(
                f"screener returned {totals.shape} scores for "
                f"{len(candidates)} candidates"
            )
        survivors = np.argsort(totals, kind="stable")[:keep]
        scored = self.step_batch(
            [state] * len(survivors), candidates[survivors]
        )
        results: list[tuple[EnvState, float] | None] = [None] * len(candidates)
        for index, pair in zip(survivors, scored):
            results[int(index)] = pair
        return results

    def _validate_candidates(self, candidate_actions: np.ndarray) -> np.ndarray:
        candidates = np.asarray(candidate_actions)
        if candidates.ndim != 2 or candidates.shape[0] == 0:
            raise RLError(
                "candidate actions must be a non-empty (A, n_segments) "
                f"matrix, got shape {candidates.shape}"
            )
        self._validate_actions(candidates)
        return candidates

    def measure_plan(self):
        """The clip's cached measure-point stencil plan (``None`` when no
        segment owns a measure point)."""
        if not self._epe_plan_built:
            self._epe_plan = measure_stencil_plan(
                self.grid, self.segments, search_nm=self.epe_search_nm
            )
            self._epe_plan_built = True
        return self._epe_plan

    def score_moves_epe(
        self, state: EnvState, candidate_actions: np.ndarray
    ) -> list[EPEReport]:
        """EPE-only screening of A candidate action vectors.

        The cheap sibling of :meth:`score_moves` for callers that rank
        candidates purely by measure-point EPE: lithography runs the
        sparse band-spectrum gather at the clip's measure-point stencils
        only (:meth:`~repro.litho.simulator.LithographySimulator.
        simulate_epe_batch`) — no printed images, no PV band, no
        full-grid intensity.  Returns one :class:`~repro.metrology.epe.
        EPEReport` per candidate, agreeing with the corresponding
        ``score_moves`` report to <= 1e-9 nm per measure point.  Use it
        to cut a wide candidate set down before paying for full
        :meth:`score_moves` evaluation of the survivors.

        The whole batch rides the simulator's array backend: under
        ``LithoConfig(backend="torch")`` the rfft/gather/GEMM pipeline
        runs on the configured device and only sparse per-point values
        return to host for EPE resolution.
        """
        candidates = self._validate_candidates(candidate_actions)
        move_set = np.asarray(MOVE_SET_NM, dtype=np.float64)
        images = np.stack([
            rasterize(state.mask.moved(move_set[row]).mask_polygons(), self.grid)
            for row in candidates
        ])
        plan = self.measure_plan()
        sparse = self.simulator.simulate_epe_batch(images, self.grid, plan)
        return measure_epe_grouped_sparse(
            sparse, self.simulator.config.threshold
        )

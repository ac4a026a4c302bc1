"""Batch-parity property tests for the unified band-limited engine.

The batched engine must match the single-mask spatial reference to FFT
round-off (<= 1e-9 absolute intensity, with identical printed corners)
across batch sizes, process corners and grid shapes, and per-mask results
must be bit-for-bit independent of the batch size — so callers can switch
on batch size alone."""

import numpy as np
import pytest

from repro.geometry import Clip, Grid, Polygon, Rect, rasterize
from repro.geometry.mask_edit import MaskState
from repro.geometry.segmentation import fragment_clip
from repro.litho import LithoConfig, LithographySimulator
from repro.rl.env import OPCEnvironment

MAX_ABS_ERROR = 1e-9


@pytest.fixture(scope="module")
def sim():
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=6)
    )


SQUARE = Grid(0, 0, 8.0, 160, 160)
TALL = Grid(0, 0, 8.0, 176, 144)  # non-square: rows != cols


def mask_stack(grid, count):
    """`count` distinct masks (varying via sizes/positions) on `grid`."""
    rng = np.random.default_rng(1234)
    masks = []
    for _ in range(count):
        cx = float(rng.integers(500, int(grid.cols * 8) - 500))
        cy = float(rng.integers(500, int(grid.rows * 8) - 500))
        size = float(rng.integers(60, 120))
        masks.append(
            rasterize([Polygon.from_rect(Rect.square(cx, cy, size))], grid)
        )
    return masks


def assert_results_close(batch_result, single_result):
    """Band engine vs spatial reference: round-off on aerials, identical
    printed corners."""
    assert np.abs(batch_result.aerial - single_result.aerial).max() < MAX_ABS_ERROR
    assert (
        np.abs(batch_result.aerial_defocus - single_result.aerial_defocus).max()
        < MAX_ABS_ERROR
    )
    for corner in ("nominal", "inner", "outer"):
        assert np.array_equal(
            batch_result.printed[corner], single_result.printed[corner]
        )


def assert_results_identical(result_a, result_b):
    assert np.array_equal(result_a.aerial, result_b.aerial)
    assert np.array_equal(result_a.aerial_defocus, result_b.aerial_defocus)
    for corner in ("nominal", "inner", "outer"):
        assert np.array_equal(
            result_a.printed[corner], result_b.printed[corner]
        )


class TestBatchParity:
    @pytest.mark.parametrize("batch_size", [1, 2, 7])
    @pytest.mark.parametrize("grid", [SQUARE, TALL], ids=["square", "tall"])
    def test_simulate_batch_matches_simulate_mask(self, sim, grid, batch_size):
        masks = mask_stack(grid, batch_size)
        batched = sim.simulate_batch(masks, grid)
        assert len(batched) == batch_size
        for mask, result in zip(masks, batched):
            assert_results_close(result, sim.simulate_mask(mask, grid))

    @pytest.mark.parametrize("grid", [SQUARE, TALL], ids=["square", "tall"])
    def test_batch_size_independence_is_bitwise(self, sim, grid):
        """Per-mask results must not depend on what else is in the batch."""
        masks = mask_stack(grid, 5)
        batched = sim.simulate_batch(masks, grid)
        for mask, result in zip(masks, batched):
            alone = sim.simulate_batch(mask[None], grid)[0]
            assert_results_identical(result, alone)

    def test_array_and_list_inputs_agree(self, sim):
        masks = mask_stack(SQUARE, 3)
        from_list = sim.simulate_batch(masks, SQUARE)
        from_array = sim.simulate_batch(np.stack(masks), SQUARE)
        for a, b in zip(from_list, from_array):
            assert_results_identical(a, b)

    def test_convolve_batch_matches_single(self, sim):
        """Band engine vs the full-grid spatial reference path."""
        kernel_set = sim.kernel_set(0.0)
        masks = mask_stack(SQUARE, 4)
        batched = kernel_set.convolve_intensity_batch(np.stack(masks))
        for mask, intensity in zip(masks, batched):
            reference = kernel_set.convolve_intensity(mask)
            assert np.abs(intensity - reference).max() < MAX_ABS_ERROR

    def test_simulate_polygons_still_matches_reference(self, sim):
        """simulate_polygons routes through the batched engine at B=1 and
        must stay within round-off of the single-mask reference path."""
        poly = Polygon.from_rect(Rect.square(640, 640, 100))
        via_batch = sim.simulate_polygons([poly], SQUARE)
        via_reference = sim.simulate_mask(rasterize([poly], SQUARE), SQUARE)
        assert_results_close(via_batch, via_reference)


class TestUnifiedBandEngine:
    def test_band_subgrid_is_compact_on_production_grids(self, sim):
        band = sim.kernel_set(0.0).band_spectra(SQUARE.shape)
        assert band.compact
        assert band.subgrid[0] < SQUARE.rows and band.subgrid[1] < SQUARE.cols
        # Alias-free intensity subgrid: m >= 4b + 1 on both axes.
        assert band.subgrid[0] >= 4 * band.band[0] + 1
        assert band.subgrid[1] >= 4 * band.band[1] + 1

    def test_spectra_vanish_outside_band(self, sim):
        """The exactness precondition: zero energy outside the gathered
        pupil band on the full grid."""
        kernel_set = sim.kernel_set(0.0)
        band = kernel_set.band_spectra(SQUARE.shape)
        full = kernel_set.kernel_spectra(SQUARE.shape)
        b0, b1 = band.band
        row_in = np.zeros(SQUARE.rows, dtype=bool)
        row_in[np.r_[0 : b0 + 1, SQUARE.rows - b0 : SQUARE.rows]] = True
        col_in = np.zeros(SQUARE.cols, dtype=bool)
        col_in[np.r_[0 : b1 + 1, SQUARE.cols - b1 : SQUARE.cols]] = True
        out_of_band = ~(row_in[:, None] & col_in[None, :])
        assert np.abs(full[:, out_of_band]).max() == 0.0
        assert np.abs(full[:, ~out_of_band]).max() > 0

    def test_fallback_when_band_covers_grid(self):
        """When the pupil band spans the whole grid the subgrid cannot
        shrink: the band engine runs on the full grid, skips the
        resample, and must exactly match the reference path."""
        from repro.litho import build_kernel_set

        # 40 nm pixels: the band radius is ~0.28 * n, so 4b + 1 > n.
        kernel_set = build_kernel_set(
            pixel_nm=40.0, max_kernels=4, backend="numpy"
        )
        band = kernel_set.band_spectra((32, 32))
        assert not band.compact
        assert band.subgrid == (32, 32)
        mask = np.zeros((32, 32))
        mask[10:20, 10:20] = 1.0
        batched = kernel_set.convolve_intensity_batch(mask[None])
        reference = kernel_set.convolve_intensity(mask)
        assert np.array_equal(batched[0], reference)


def _tiny_env(sim):
    clip = Clip(
        name="batch-env",
        bbox=Rect(0, 0, 1280, 1280),
        targets=(Polygon.from_rect(Rect.square(640, 640, 90)),),
        layer="via",
    )
    return OPCEnvironment(clip, sim, initial_bias_nm=3.0)


class TestEnvBatching:
    def test_evaluate_batch_matches_evaluate(self, sim):
        env = _tiny_env(sim)
        base = env.reset()
        deltas = [np.full(env.n_segments, d) for d in (-2.0, 0.0, 2.0)]
        masks = [base.mask.moved(d) for d in deltas]
        batched = env.evaluate_batch(masks)
        for mask, state in zip(masks, batched):
            reference = env.evaluate(mask)
            assert np.array_equal(state.litho.aerial, reference.litho.aerial)
            assert np.array_equal(state.seg_epe, reference.seg_epe)
            assert state.total_epe == reference.total_epe
            assert state.pvband == reference.pvband

    def test_score_moves_matches_step(self, sim):
        env = _tiny_env(sim)
        base = env.reset()
        candidates = env.uniform_move_candidates()
        scored = env.score_moves(base, candidates)
        assert len(scored) == env.n_actions
        for row, (state, reward) in zip(candidates, scored):
            step_state, step_reward = env.step(base, row)
            assert np.array_equal(state.litho.aerial, step_state.litho.aerial)
            assert state.total_epe == step_state.total_epe
            assert reward == step_reward

    def test_uniform_candidates_shape(self, sim):
        env = _tiny_env(sim)
        candidates = env.uniform_move_candidates()
        assert candidates.shape == (env.n_actions, env.n_segments)
        for action, row in enumerate(candidates):
            assert np.all(row == action)


class TestRunnerBatchVerification:
    def test_suite_recheck_passes_and_raises_on_drift(self, sim):
        from repro.baselines.mbopc import MBOPC, MBOPCConfig
        from repro.errors import MetrologyError
        from repro.eval.runner import batch_verify_epe, run_engine_on_suite

        clip = Clip(
            name="runner-clip",
            bbox=Rect(0, 0, 1280, 1280),
            targets=(Polygon.from_rect(Rect.square(640, 640, 90)),),
            layer="via",
        )
        engine = MBOPC(MBOPCConfig(max_updates=2, initial_bias_nm=3.0), sim)
        result = run_engine_on_suite(
            engine, [clip], "MB-OPC", verify_simulator=sim
        )
        assert len(result.rows) == 1

        # A corrupted self-report must be caught by the batched recheck.
        outcome = engine.optimize(clip)
        measured = batch_verify_epe(sim, [clip], [outcome])
        assert measured["runner-clip"] == pytest.approx(outcome.epe_total)

        class LyingEngine:
            def optimize(self, clip, **kwargs):
                class Fake:
                    epe_total = outcome.epe_total + 5.0
                    pvband = outcome.pvband
                    runtime_s = outcome.runtime_s
                    steps = outcome.steps
                    early_exited = outcome.early_exited
                    final_state = outcome.final_state

                return Fake()

        with pytest.raises(MetrologyError, match="re-simulation"):
            run_engine_on_suite(
                LyingEngine(), [clip], "liar", verify_simulator=sim
            )

    def test_recheck_honours_engine_search_range(self, sim):
        """The verifier must re-measure with the engine's configured
        contour-search range, not the 40 nm default — otherwise engines
        with a custom epe_search_nm are falsely flagged as drifting."""
        from repro.baselines.mbopc import MBOPC, MBOPCConfig
        from repro.eval.runner import run_engine_on_suite

        from repro.eval.runner import batch_verify_epe

        clip = Clip(
            name="search-clip",
            bbox=Rect(0, 0, 1280, 1280),
            targets=(Polygon.from_rect(Rect.square(640, 640, 130)),),
            layer="via",
        )
        # Over-biased, unoptimized mask: the printed contour sits 12-40 nm
        # outside the target, so the 12 nm and 40 nm search ranges measure
        # different EPE and a default-range recheck would false-alarm.
        engine = MBOPC(
            MBOPCConfig(max_updates=0, initial_bias_nm=12.0, epe_search_nm=12.0),
            sim,
        )
        outcome = engine.optimize(clip, early_exit=False)
        wide = batch_verify_epe(sim, [clip], [outcome], epe_search_nm=40.0)
        assert abs(wide["search-clip"] - outcome.epe_total) > 1.0  # sanity
        result = run_engine_on_suite(
            engine,
            [clip],
            "narrow-search",
            verify_simulator=sim,
            early_exit=False,
        )
        assert len(result.rows) == 1


class TestAgentLookahead:
    def test_lookahead_first_step_never_worse(self, sim):
        """With candidate_lookahead the agent picks the best of {policy
        action, five uniform moves} per step, so its first-step reward is
        >= the plain policy's (both runs are deterministic at inference)."""
        from repro.core.agent import CAMO
        from repro.core.config import CamoConfig

        clip = Clip(
            name="lookahead",
            bbox=Rect(0, 0, 1280, 1280),
            targets=(Polygon.from_rect(Rect.square(640, 640, 90)),),
            layer="via",
        )
        plain = CAMO(
            CamoConfig.smoke(initial_bias_nm=3.0, max_updates=2), sim
        ).optimize(clip, early_exit=False)
        ahead = CAMO(
            CamoConfig.smoke(
                initial_bias_nm=3.0, max_updates=2, candidate_lookahead=True
            ),
            sim,
        ).optimize(clip, early_exit=False)
        assert ahead.steps == plain.steps == 2
        assert ahead.trajectory.steps[0].reward >= plain.trajectory.steps[0].reward
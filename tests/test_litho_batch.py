"""Batch-parity property tests for the unified band-limited engine.

The batched engine must match the single-mask spatial reference to FFT
round-off (<= 1e-9 absolute intensity, with identical printed corners)
across batch sizes, process corners and grid shapes, and per-mask results
must be bit-for-bit independent of the batch size — so callers can switch
on batch size alone."""

import numpy as np
import pytest

from repro.errors import LithoError
from repro.geometry import Clip, Grid, Polygon, Rect, rasterize
from repro.geometry.raster import Slabs
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


def dense_intensity(kernel_set, masks):
    """Dense aerials of a ``(B, H, W)`` mask stack through the band
    engine: the imaging front end, then the dense back end."""
    shape = masks.shape[-2:]
    spectra = kernel_set.fft.rfft2(masks, axes=(-2, -1))
    return kernel_set.resample_intensity(
        kernel_set.subgrid_intensity(spectra, shape), shape
    )


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
        batched = dense_intensity(kernel_set, np.stack(masks))
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

    def test_simulate_polygons_rejects_overlapping_polygons(self, sim):
        """The polygon band sums polygons where the raster clips coverage
        at 1, so an overlapping pair is refused rather than counted
        twice; polygons that only share an edge are disjoint."""
        left = Polygon.from_rect(Rect(500, 500, 640, 700))
        touching = Polygon.from_rect(Rect(640, 550, 760, 650))
        l_shape = Polygon(
            ((700, 400), (900, 400), (900, 800), (860, 800), (860, 440), (700, 440))
        )
        # Inside the L's bounding box but off its arms: still disjoint.
        pocket = Polygon.from_rect(Rect(760, 500, 840, 560))
        sim.simulate_polygons([left, touching, l_shape, pocket], SQUARE)
        notch = Polygon.from_rect(Rect(840, 700, 870, 760))
        with pytest.raises(LithoError, match="overlap"):
            sim.simulate_polygons([left, l_shape, notch], SQUARE)

    def test_simulate_batch_rejects_overlapping_polygon_sets(self, sim):
        """Polygon-set input to simulate_batch is checked like
        simulate_polygons, mask by mask; a mask's slabs are taken as
        given (the OPC environment's own input)."""
        left = Polygon.from_rect(Rect(500, 500, 640, 700))
        right = Polygon.from_rect(Rect(700, 500, 800, 700))
        across = Polygon.from_rect(Rect(600, 600, 720, 640))
        sim.simulate_batch([[left, right], [across]], SQUARE)
        with pytest.raises(LithoError, match="polygons 0 and 2 overlap"):
            sim.simulate_batch([[left], [left, right, across]], SQUARE)
        overlapping = Slabs.of([left, across])
        (from_slabs,) = sim.simulate_batch([overlapping], SQUARE)
        raster = rasterize([left], SQUARE) + rasterize([across], SQUARE)
        assert_results_close(from_slabs, sim.simulate_mask(raster, SQUARE))


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
        batched = dense_intensity(kernel_set, mask[None])
        reference = kernel_set.convolve_intensity(mask)
        assert np.array_equal(batched[0], reference)


class TestRealResample:
    """The dense back end: subgrid ``rfft2``, zero-padded half spectrum,
    ``irfft2`` — held to the spatial reference at paper pixel pitch."""

    @pytest.fixture(scope="class")
    def paper_sim(self):
        return LithographySimulator(LithoConfig(backend="numpy"))

    @pytest.mark.parametrize("name, shape", [
        ("V1", (500, 500)), ("M1", (375, 375)),
    ])
    def test_matches_reference_on_paper_grids(self, paper_sim, name, shape):
        from repro.data.metal_bench import metal_test_suite
        from repro.data.via_bench import via_test_suite

        suite = via_test_suite() if name[0] == "V" else metal_test_suite()
        clip = next(clip for clip in suite if clip.name == name)
        grid = paper_sim.grid_for(clip)
        assert grid.shape == shape
        assert paper_sim.kernel_set(0.0).band_spectra(shape).compact
        mask = rasterize(clip.targets, grid)
        assert_results_close(
            paper_sim.simulate_batch(mask[None], grid)[0],
            paper_sim.simulate_mask(mask, grid),
        )

    def test_non_compact_grid_takes_the_no_resample_path(self):
        """48 x 48 at 40 nm: the band covers the grid, so the subgrid is
        the grid, nothing is resampled, and both corners equal the
        reference bit for bit."""
        sim = LithographySimulator(
            LithoConfig(pixel_nm=40.0, max_kernels=4, backend="numpy")
        )
        grid = Grid(0, 0, 40.0, 48, 48)
        kernel_set = sim.kernel_set(0.0)
        assert not kernel_set.band_spectra(grid.shape).compact
        sub = np.random.default_rng(5).random((2, *grid.shape))
        assert kernel_set.resample_intensity(sub, grid.shape) is sub
        mask = np.zeros(grid.shape)
        mask[18:30, 15:27] = 1.0
        batched = sim.simulate_batch(mask[None], grid)[0]
        assert_results_identical(batched, sim.simulate_mask(mask, grid))


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
            step_state = env.step(base, row)
            assert np.array_equal(state.litho.aerial, step_state.litho.aerial)
            assert state.total_epe == step_state.total_epe
            assert reward == env.reward(base, step_state)

    def test_uniform_candidates_shape(self, sim):
        env = _tiny_env(sim)
        candidates = env.uniform_move_candidates()
        assert candidates.shape == (env.n_actions, env.n_segments)
        for action, row in enumerate(candidates):
            assert np.all(row == action)


class TestRunnerBatchVerification:
    """The suite sweep (``MaskOptService.run_suite``) re-measures every
    final mask through the shape-binned scheduler."""

    def test_suite_recheck_passes_and_raises_on_drift(self, sim):
        from repro.baselines.mbopc import MBOPC, MBOPCConfig
        from repro.errors import MetrologyError
        from repro.service import MaskOptService, ShapeBinScheduler

        clip = Clip(
            name="runner-clip",
            bbox=Rect(0, 0, 1280, 1280),
            targets=(Polygon.from_rect(Rect.square(640, 640, 90)),),
            layer="via",
        )
        engine = MBOPC(MBOPCConfig(max_updates=2, initial_bias_nm=3.0), sim)
        (result,) = MaskOptService(simulator=sim).run_suite(engine, [clip])
        assert result.outcome == "verified"

        # A corrupted self-report must be caught by the batched recheck.
        outcome = engine.optimize(clip)
        scheduler = ShapeBinScheduler()
        assert scheduler.add_outcome("runner-clip", clip, outcome, sim, 40.0)
        measured = scheduler.flush(sim)
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
            MaskOptService(simulator=sim).run_suite(LyingEngine(), [clip])

    def test_recheck_honours_engine_search_range(self, sim):
        """The verifier must re-measure with the engine's configured
        contour-search range, not the 40 nm default — otherwise engines
        with a custom epe_search_nm are falsely flagged as drifting."""
        from repro.baselines.mbopc import MBOPC, MBOPCConfig
        from repro.service import MaskOptService, ShapeBinScheduler

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
        scheduler = ShapeBinScheduler()
        scheduler.add_outcome("search-clip", clip, outcome, sim, 40.0)
        wide = scheduler.flush(sim)
        assert abs(wide["search-clip"] - outcome.epe_total) > 1.0  # sanity
        (result,) = MaskOptService(simulator=sim).run_suite(
            engine, [clip], early_exit=False,
        )
        assert result.outcome == "verified"

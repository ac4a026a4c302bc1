"""The analytic pupil band of polygon input against the raster route.

``repro.litho.polygon_band`` takes a mask's pupil band straight from its
polygons' slabs.  Here it is held to ``rasterize`` -> ``rfft2`` ->
``gather_band_rfft`` (<= 1e-12 relative) on every via and metal suite
clip: at the start state, after random move sets, and with every
segment at +24 nm and at -24 nm.  The extreme offsets pin the
precondition the analytic sum rests on: a mask's polygons stay mutually
disjoint, so ``rasterize``'s clip to [0, 1] never bites.

Also here: window-crossing polygons, empty polygon sets, a non-compact
grid, the one-transform kernel imaging against a per-kernel loop, and
the simulator and environment entry points that take polygons.
"""

import numpy as np
import pytest

from repro.constants import MAX_SEGMENT_OFFSET_NM
from repro.data.metal_bench import metal_test_suite
from repro.data.via_bench import via_test_suite
from repro.geometry.mask_edit import MaskState
from repro.geometry.polygon import Polygon
from repro.geometry.raster import Grid, rasterize
from repro.geometry.rect import Rect
from repro.litho.kernels import gather_band_rfft
from repro.litho.polygon_band import (
    interval_coverage_dft,
    polygon_band_coeffs,
    polygon_band_subgrid,
)
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.rl.env import OPCEnvironment

RELATIVE_TOLERANCE = 1e-12
CLIPS = list(via_test_suite()) + list(metal_test_suite())


@pytest.fixture(scope="module")
def sim():
    return LithographySimulator(LithoConfig(backend="numpy"))


def raster_band(polygon_sets, grid, band):
    """The reference band: rasterize, full-grid ``rfft2``, gather."""
    stack = np.stack([rasterize(polygons, grid) for polygons in polygon_sets])
    return gather_band_rfft(np.fft.rfft2(stack, axes=(-2, -1)), band)


def assert_band_matches_raster(polygon_sets, grid, band):
    reference = raster_band(polygon_sets, grid, band)
    analytic = polygon_band_subgrid(polygon_sets, grid, band)
    assert analytic.shape == reference.shape
    scale = max(np.abs(reference).max(), 1.0)
    assert np.abs(analytic - reference).max() <= RELATIVE_TOLERANCE * scale


def brute_coverage_dft(lo, hi, n_pixels, freqs):
    pixels = np.arange(n_pixels)
    weights = np.clip(
        np.minimum(pixels + 1, hi) - np.maximum(pixels, lo), 0.0, None
    )
    phases = np.exp(-2j * np.pi * np.outer(freqs, pixels) / n_pixels)
    return phases @ weights


class TestIntervalCoverageDFT:
    @pytest.mark.parametrize("lo, hi", [
        (2.25, 2.75),  # inside one pixel
        (2.25, 3.0),  # ends on a pixel boundary
        (2.0, 3.0),  # exactly one pixel
        (1.5, 2.5),  # two fringe pixels, no interior
        (0.0, 12.0),  # the whole axis
        (3.1, 9.4),  # fringes and an interior
    ])
    def test_matches_brute_force(self, lo, hi):
        freqs = np.array([0, 1, 3, 5, 11, -2])
        got = interval_coverage_dft(np.array([lo]), np.array([hi]), 12, freqs)
        np.testing.assert_allclose(
            got[0], brute_coverage_dft(lo, hi, 12, freqs), rtol=0, atol=1e-12
        )

    def test_zero_frequency_is_the_exact_length(self):
        lo = np.array([1.25, 0.0, 4.5, 7.0])
        hi = np.array([7.5, 12.0, 4.75, 8.0])
        got = interval_coverage_dft(lo, hi, 12, np.array([0, 12]))
        assert np.array_equal(got[:, 0], (hi - lo).astype(complex))
        assert np.array_equal(got[:, 1], got[:, 0])

    def test_batch_rows_match_single_rows(self):
        rng = np.random.default_rng(0)
        lo = rng.uniform(0, 40, size=17)
        hi = lo + rng.uniform(0.05, 20, size=17)
        freqs = np.arange(-6, 7)
        batch = interval_coverage_dft(lo, hi, 64, freqs)
        for row in range(len(lo)):
            single = interval_coverage_dft(lo[row:row + 1], hi[row:row + 1], 64, freqs)
            assert np.array_equal(batch[row], single[0])
            np.testing.assert_allclose(
                batch[row], brute_coverage_dft(lo[row], hi[row], 64, freqs),
                rtol=0, atol=1e-11,
            )


@pytest.mark.parametrize("clip", CLIPS, ids=[clip.name for clip in CLIPS])
def test_band_matches_raster_on_suite_clip(sim, clip):
    """Start state, ten random move sets, every segment at +24 nm and at
    -24 nm: all in one batch, against the raster route."""
    env = OPCEnvironment(clip, sim, initial_bias_nm=3.0)
    band = sim.kernel_set(0.0).band_spectra(env.grid.shape)
    start = env._initial_mask()
    rng = np.random.default_rng(sum(map(ord, clip.name)))
    states = [start] + [
        start.moved(rng.uniform(-24.0, 24.0, size=env.n_segments))
        for _ in range(10)
    ] + [
        MaskState.initial(clip, env.segments, bias_nm=bias)
        for bias in (MAX_SEGMENT_OFFSET_NM, -MAX_SEGMENT_OFFSET_NM)
    ]
    assert_band_matches_raster(
        [state.mask_polygons() for state in states], env.grid, band
    )


class TestGeometryEdgeCases:
    GRID = Grid(0.0, 0.0, 8.0, 160, 160)

    @pytest.fixture(scope="class")
    def coarse(self):
        return LithographySimulator(LithoConfig(
            pixel_nm=8.0, max_kernels=4, backend="numpy",
        ))

    def test_polygons_crossing_the_window_edge(self, coarse):
        band = coarse.kernel_set(0.0).band_spectra(self.GRID.shape)
        polygons = (
            Polygon.from_rect(Rect(-50.0, 300.0, 90.0, 420.0)),  # left edge
            Polygon.from_rect(Rect(1200.0, 1210.0, 1400.0, 1300.0)),  # corner
            Polygon.from_rect(Rect(500.0, -30.0, 640.0, 44.0)),  # bottom edge
            Polygon.from_rect(Rect(1500.0, 1500.0, 1600.0, 1600.0)),  # outside
        )
        assert_band_matches_raster([polygons], self.GRID, band)

    def test_empty_polygon_sets_give_a_zero_band(self, coarse):
        band = coarse.kernel_set(0.0).band_spectra(self.GRID.shape)
        via = (Polygon.from_rect(Rect.square(640.0, 640.0, 100.0)),)
        sub = polygon_band_subgrid([(), via, ()], self.GRID, band)
        assert not sub[0].any() and not sub[2].any()
        alone = polygon_band_subgrid([via], self.GRID, band)
        assert np.array_equal(sub[1], alone[0])
        assert not polygon_band_subgrid([()], self.GRID, band).any()
        assert_band_matches_raster([(), via], self.GRID, band)

    def test_non_compact_grid(self):
        """40 nm pixels: the band covers the 48 x 48 grid, so the
        subgrid is the grid and the band fills most of it."""
        sim = LithographySimulator(
            LithoConfig(pixel_nm=40.0, max_kernels=4, backend="numpy")
        )
        grid = Grid(0.0, 0.0, 40.0, 48, 48)
        band = sim.kernel_set(0.0).band_spectra(grid.shape)
        assert not band.compact
        polygons = (
            Polygon.from_rect(Rect(700.0, 610.0, 1030.0, 1090.0)),
            Polygon.from_rect(Rect(-10.0, 30.0, 150.0, 210.0)),
        )
        assert_band_matches_raster([polygons], grid, band)
        mask = rasterize(polygons, grid)
        from_polygons = sim.simulate_polygons(polygons, grid)
        reference = sim.simulate_mask(mask, grid)
        assert np.abs(from_polygons.aerial - reference.aerial).max() < 1e-12
        for corner in ("nominal", "inner", "outer"):
            assert np.array_equal(
                from_polygons.printed[corner], reference.printed[corner]
            )

    def test_hermitian_half_is_the_rfft_half(self, coarse):
        band = coarse.kernel_set(0.0).band_spectra(self.GRID.shape)
        polygons = (Polygon.from_rect(Rect(300.0, 420.0, 700.0, 500.0)),)
        half = polygon_band_coeffs([polygons], self.GRID, band)
        spectrum = np.fft.rfft2(rasterize(polygons, self.GRID))
        reference = spectrum[band.rows_src][:, : band.band[1] + 1]
        assert half.shape == (1, *reference.shape)
        assert np.abs(half[0] - reference).max() < 1e-12 * np.abs(reference).max()

    def test_rejects_a_mismatched_grid(self, coarse):
        from repro.errors import LithoError

        band = coarse.kernel_set(0.0).band_spectra(self.GRID.shape)
        with pytest.raises(LithoError, match="does not match"):
            polygon_band_subgrid([()], Grid(0.0, 0.0, 8.0, 128, 128), band)


def per_kernel_intensity(kernel_set, mask_band, band):
    """One inverse FFT per kernel: the imaging loop ``image_band``
    replaced, kept as its bit-for-bit reference."""
    intensity = np.zeros(mask_band.shape)
    for weight, kernel_sub in zip(band.weights, band.sub_spectra):
        field_k = np.fft.ifft2(mask_band * kernel_sub, axes=(-2, -1))
        intensity += weight * (field_k.real**2 + field_k.imag**2)
    return intensity


def test_one_transform_imaging_is_bit_for_bit():
    sim = LithographySimulator(LithoConfig(pixel_nm=8.0, max_kernels=8))
    clip = CLIPS[0]
    grid = sim.grid_for(clip)
    kernel_set = sim.kernel_set(0.0)
    band = kernel_set.band_spectra(grid.shape)
    assert band.count > 1
    env_masks = [
        MaskState.initial(clip, OPCEnvironment(clip, sim).segments, bias_nm=b)
        for b in (-6.0, 0.0, 3.0)
    ]
    polygon_sets = [mask.mask_polygons() for mask in env_masks]
    mask_band = polygon_band_subgrid(polygon_sets, grid, band)
    assert np.array_equal(
        kernel_set.image_band(mask_band, band),
        per_kernel_intensity(kernel_set, mask_band, band),
    )
    # The raster-input entry: rfft2, gather, then the same imaging.
    rasters = np.stack([rasterize(p, grid) for p in polygon_sets])
    spectra = np.fft.rfft2(rasters, axes=(-2, -1))
    assert np.array_equal(
        kernel_set.subgrid_intensity(rasters),
        per_kernel_intensity(
            kernel_set, gather_band_rfft(spectra, band), band
        ),
    )


class TestPolygonInput:
    def test_simulate_batch_polygons_match_rasters(self, sim):
        clip = next(clip for clip in CLIPS if clip.name == "V3")
        env = OPCEnvironment(clip, sim, initial_bias_nm=3.0)
        start = env._initial_mask()
        rng = np.random.default_rng(4)
        masks = [start] + [
            start.moved(rng.integers(-2, 3, size=env.n_segments))
            for _ in range(2)
        ]
        polygon_sets = [mask.mask_polygons() for mask in masks]
        rasters = np.stack([rasterize(p, env.grid) for p in polygon_sets])
        plans = [plan for plan in env._plans if plan is not None]
        from_polygons = sim.simulate_batch(polygon_sets, env.grid, plans)
        from_rasters = sim.simulate_batch(rasters, env.grid, plans)
        for got, want in zip(from_polygons, from_rasters):
            assert np.abs(got.aerial - want.aerial).max() < 1e-12
            assert np.abs(
                got.aerial_defocus - want.aerial_defocus
            ).max() < 1e-12
            for corner in ("nominal", "inner", "outer"):
                assert np.array_equal(got.printed[corner], want.printed[corner])
            for a, b in zip(got.sparse, want.sparse):
                assert np.abs(a.values - b.values).max() < 1e-12

    def test_planned_lift_is_bit_for_bit_the_per_call_lift(self, sim):
        clip = next(clip for clip in CLIPS if clip.name == "M2")
        env = OPCEnvironment(clip, sim)
        polygon_sets = [env._initial_mask().mask_polygons()]
        plans = [plan for plan in env._plans if plan is not None]
        per_call = sim.simulate_batch(polygon_sets, env.grid, plans)[0]
        planned = sim.simulate_batch(polygon_sets, env.grid, env._lift)[0]
        assert len(planned.sparse) == len(per_call.sparse) == 2
        for a, b in zip(planned.sparse, per_call.sparse):
            assert a.plan is b.plan
            assert np.array_equal(a.values, b.values)

    def test_lift_rejects_another_grid(self, sim):
        from repro.errors import LithoError

        env = OPCEnvironment(CLIPS[0], sim)
        other = Grid(0.0, 0.0, sim.config.pixel_nm, 375, 375)
        polygons = [(Polygon.from_rect(Rect.square(700.0, 700.0, 80.0)),)]
        with pytest.raises(LithoError, match="does not match"):
            sim.simulate_batch(polygons, other, env._lift)

    def test_empty_polygon_batch_is_rejected(self, sim):
        from repro.errors import LithoError

        with pytest.raises(LithoError, match="empty"):
            sim.simulate_batch([], Grid(0.0, 0.0, 4.0, 375, 375))

    def test_score_moves_is_bit_for_bit_step(self, sim):
        """Batch-size independence on the analytic band: each scored
        candidate equals the single-state step that applies it."""
        clip = next(clip for clip in CLIPS if clip.name == "M4")
        env = OPCEnvironment(clip, sim)
        state = env.reset()
        rng = np.random.default_rng(9)
        candidates = np.vstack([
            np.repeat(
                np.arange(env.n_actions)[:, None], env.n_segments, axis=1
            ),
            rng.integers(0, env.n_actions, size=(2, env.n_segments)),
        ])
        scored = env.score_moves(state, candidates)
        for row, (batched, reward) in zip(candidates, scored):
            alone = env.step(state, row)
            assert reward == env.reward(state, alone)
            assert np.array_equal(batched.epe.values, alone.epe.values)
            assert np.array_equal(batched.seg_epe, alone.seg_epe)
            assert batched.pvband == alone.pvband
            assert np.array_equal(
                batched.litho.aerial_defocus, alone.litho.aerial_defocus
            )

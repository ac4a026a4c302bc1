"""Tests for EPE and PV-band metrology, including the sign convention."""

import numpy as np
import pytest

from repro.errors import MetrologyError
from repro.geometry import Clip, Grid, Polygon, Rect, fragment_clip, rasterize
from repro.litho import LithoConfig, LithographySimulator
from repro.metrology import (
    contour_offset_along_normal,
    contour_offset_reference,
    measure_epe,
    measure_epe_batch,
    measure_epe_grouped,
    pvband_area,
    pvband_area_batch,
    pvband_image,
    segment_epe,
    segment_epe_batch,
)
from repro.metrology.contour import (
    SparseAerial,
    contour_offsets_sparse,
    plan_contour_stencils,
)


@pytest.fixture(scope="module")
def sim():
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=8)
    )


@pytest.fixture(scope="module")
def grid():
    return Grid(0, 0, 8.0, 160, 160)


def clip_with_via(size=70):
    return Clip(
        name="t",
        bbox=Rect(0, 0, 1280, 1280),
        targets=(Polygon.from_rect(Rect.square(640, 640, size)),),
        layer="via",
    )


class TestContourOffset:
    def test_synthetic_step_field(self):
        """A synthetic linear intensity ramp has an exactly computable contour."""
        g = Grid(0, 0, 1.0, 64, 64)
        xs = g.x_centers()
        # Intensity falls linearly with x: I = 1 - x/64; threshold 0.5 at x=32.
        aerial = np.tile(1.0 - xs / 64.0, (64, 1))
        points = np.array([[30.0, 32.0]])
        normals = np.array([[1.0, 0.0]])
        offset = contour_offset_along_normal(aerial, g, points, normals, 0.5)
        assert offset[0] == pytest.approx(2.0, abs=0.05)

    def test_negative_when_contour_inside(self):
        g = Grid(0, 0, 1.0, 64, 64)
        xs = g.x_centers()
        aerial = np.tile(1.0 - xs / 64.0, (64, 1))
        points = np.array([[40.0, 32.0]])  # target edge beyond the contour
        normals = np.array([[1.0, 0.0]])
        offset = contour_offset_along_normal(aerial, g, points, normals, 0.5)
        assert offset[0] == pytest.approx(-8.0, abs=0.05)

    def test_clamps_when_unprinted(self):
        g = Grid(0, 0, 1.0, 64, 64)
        aerial = np.zeros((64, 64))
        points = np.array([[32.0, 32.0]])
        normals = np.array([[1.0, 0.0]])
        offset = contour_offset_along_normal(
            aerial, g, points, normals, 0.5, search_nm=20
        )
        assert offset[0] == -20

    def test_clamps_when_flooded(self):
        g = Grid(0, 0, 1.0, 64, 64)
        aerial = np.ones((64, 64))
        points = np.array([[32.0, 32.0]])
        normals = np.array([[1.0, 0.0]])
        offset = contour_offset_along_normal(
            aerial, g, points, normals, 0.5, search_nm=20
        )
        assert offset[0] == 20

    def test_shape_validation(self):
        g = Grid(0, 0, 1.0, 8, 8)
        with pytest.raises(MetrologyError):
            contour_offset_along_normal(
                np.ones((8, 8)), g, np.zeros((2, 2)), np.zeros((3, 2)), 0.5
            )

    def test_param_validation(self):
        g = Grid(0, 0, 1.0, 8, 8)
        with pytest.raises(MetrologyError):
            contour_offset_along_normal(
                np.ones((8, 8)), g, np.zeros((1, 2)), np.ones((1, 2)), 0.5,
                search_nm=-1,
            )

    def test_crossing_exactly_at_sample(self):
        """A sample that equals the threshold is 'printed' there, so the
        crossing interpolates to exactly that sample's offset."""
        g = Grid(0, 0, 1.0, 64, 64)
        xs = g.x_centers()
        aerial = np.tile(1.0 - xs / 64.0, (64, 1))
        # I(x) = 1 - x/64 = 0.5 exactly at x = 32; measure from x = 30.
        points = np.array([[30.0, 32.0]])
        normals = np.array([[1.0, 0.0]])
        offset = contour_offset_along_normal(aerial, g, points, normals, 0.5)
        reference = contour_offset_reference(aerial, g, points, normals, 0.5)
        assert offset[0] == reference[0] == pytest.approx(2.0, abs=1e-12)

    def test_flat_profile_at_threshold_clamps(self):
        """An everywhere-at-threshold profile never falls below it, so
        the outward walk finds no crossing and clamps to +search_nm."""
        g = Grid(0, 0, 1.0, 32, 32)
        aerial = np.full((32, 32), 0.5)
        points = np.array([[16.0, 16.0], [10.0, 20.0]])
        normals = np.array([[1.0, 0.0], [0.0, 1.0]])
        offsets = contour_offset_along_normal(
            aerial, g, points, normals, 0.5, search_nm=12
        )
        assert np.all(offsets == 12)
        assert np.array_equal(
            offsets,
            contour_offset_reference(
                aerial, g, points, normals, 0.5, search_nm=12
            ),
        )

    def test_unprinted_feature_clamps_negative(self):
        """Zero intensity everywhere: the inward walk never rises above
        the threshold, so every point clamps to -search_nm (the
        reference agrees bit-for-bit)."""
        g = Grid(0, 0, 1.0, 32, 32)
        aerial = np.zeros((32, 32))
        points = np.array([[16.0, 16.0], [8.0, 24.0], [24.0, 8.0]])
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        offsets = contour_offset_along_normal(
            aerial, g, points, normals, 0.5, search_nm=15
        )
        assert np.all(offsets == -15)
        assert np.array_equal(
            offsets,
            contour_offset_reference(
                aerial, g, points, normals, 0.5, search_nm=15
            ),
        )


def _smooth_random_aerial(seed: int, n: int = 96) -> np.ndarray:
    rng = np.random.default_rng(seed)
    aerial = rng.random((n, n))
    for _ in range(3):
        aerial = (
            aerial
            + np.roll(aerial, 1, 0) + np.roll(aerial, -1, 0)
            + np.roll(aerial, 1, 1) + np.roll(aerial, -1, 1)
        ) / 5.0
    # Smoothing squeezes the values towards 0.5; stretched back to
    # [0, 1], profiles cross every tested threshold instead of clamping.
    return (aerial - aerial.min()) / (aerial.max() - aerial.min())


class TestVectorizedParity:
    """The stencil-plan path is the production path; the retained scalar
    reference (dense bilinear samples, one crossing walk per point) is
    its executable specification."""

    GRID = Grid(0, 0, 2.0, 96, 96)

    def _points(self, seed, count=64):
        # The raster spans 0..192 nm: about a third of the points, and
        # more of their search windows, fall outside it.
        rng = np.random.default_rng(seed)
        points = rng.uniform(-40.0, 232.0, size=(count, 2))
        angles = rng.uniform(0.0, 2.0 * np.pi, count)
        normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return points, normals

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
    def test_bitwise_equal_to_reference_on_random_aerials(self, seed, threshold):
        """One aerial, a 3-aerial stack, and per-aerial point sets
        resolved as one group of sparse aerials all equal the reference
        bit for bit."""
        window = dict(search_nm=30, step_nm=1.5)
        aerials = np.stack(
            [_smooth_random_aerial(seed + 10 * k) for k in range(3)]
        )
        points, normals = self._points(seed + 100)

        def reference(aerial, points, normals):
            return contour_offset_reference(
                aerial, self.GRID, points, normals, threshold, **window
            )

        single = contour_offset_along_normal(
            aerials[0], self.GRID, points, normals, threshold, **window
        )
        assert single.shape == (len(points),)
        assert np.array_equal(single, reference(aerials[0], points, normals))

        stacked = contour_offset_along_normal(
            aerials, self.GRID, points, normals, threshold, **window
        )
        assert stacked.shape == (3, len(points))
        for aerial, row in zip(aerials, stacked):
            assert np.array_equal(row, reference(aerial, points, normals))

        groups = [self._points(seed + k, count=8 * (k + 1)) for k in range(3)]
        plans = [
            plan_contour_stencils(self.GRID, p, n, **window) for p, n in groups
        ]
        grouped = contour_offsets_sparse(
            [
                SparseAerial(plan=plan, values=plan.gather(aerial))
                for plan, aerial in zip(plans, aerials)
            ],
            threshold,
        )
        for aerial, (p, n), row in zip(aerials, groups, grouped):
            assert np.array_equal(row, reference(aerial, p, n))

    def test_batch_validates_stack_shape(self):
        """An aerial (or stack) that is not on the grid is refused."""
        points, normals = self._points(1, count=2)
        for aerial in (np.ones((8, 8)), np.ones((2, 8, 8)), np.ones(96)):
            with pytest.raises(MetrologyError, match="not on the"):
                contour_offset_along_normal(
                    aerial, self.GRID, points, normals, 0.5
                )

    def test_grouped_validates_lengths(self):
        with pytest.raises(MetrologyError, match="equal length"):
            measure_epe_grouped(np.ones((2, 96, 96)), [self.GRID], [[]], 0.5)


class TestEPESign:
    """The paper's convention: undersized print -> negative EPE -> the
    modulator should push segments outward."""

    def test_undersized_via_negative_epe(self, sim, grid):
        clip = clip_with_via(70)
        segments = fragment_clip(clip)
        # Mask at target size: via underprints (intensity lacking).
        mask = rasterize(clip.targets, grid)
        aerial = sim.aerial(mask)
        report = measure_epe(aerial, grid, segments, sim.config.threshold)
        assert report.count == 4
        assert np.all(report.values < 0)

    def test_oversized_mask_moves_epe_positive(self, sim, grid):
        clip = clip_with_via(70)
        segments = fragment_clip(clip)
        big = rasterize([Polygon.from_rect(Rect.square(640, 640, 120))], grid)
        small = rasterize([Polygon.from_rect(Rect.square(640, 640, 80))], grid)
        epe_big = measure_epe(sim.aerial(big), grid, segments, sim.config.threshold)
        epe_small = measure_epe(sim.aerial(small), grid, segments, sim.config.threshold)
        assert epe_big.values.mean() > epe_small.values.mean()

    def test_segment_epe_covers_all_segments(self, sim, grid):
        clip = clip_with_via(70)
        segments = fragment_clip(clip)
        aerial = sim.aerial(rasterize(clip.targets, grid))
        values = segment_epe(aerial, grid, segments, sim.config.threshold)
        assert len(values) == len(segments)

    def test_report_statistics(self):
        from repro.metrology.epe import EPEReport

        report = EPEReport(values=np.array([3.0, -4.0, 0.5, 7.0]))
        assert report.total_abs == pytest.approx(14.5)
        assert report.mean_abs == pytest.approx(14.5 / 4)
        assert report.max_abs == 7.0
        assert report.violations(5.0) == 1
        assert report.count == 4

    def test_empty_report(self):
        from repro.metrology.epe import EPEReport

        report = EPEReport(values=np.zeros(0))
        assert report.total_abs == 0
        assert report.mean_abs == 0


class TestBatchedEPE:
    """Batched entry points vs mapping the scalar ones over the stack."""

    def _aerials(self, sim, grid, sizes):
        return np.stack(
            [
                sim.aerial(
                    rasterize(
                        [Polygon.from_rect(Rect.square(640, 640, size))], grid
                    )
                )
                for size in sizes
            ]
        )

    def test_measure_epe_batch_matches_scalar(self, sim, grid):
        clip = clip_with_via(70)
        segments = fragment_clip(clip)
        aerials = self._aerials(sim, grid, (70, 90, 120))
        reports = measure_epe_batch(
            aerials, grid, segments, sim.config.threshold
        )
        assert len(reports) == 3
        for aerial, report in zip(aerials, reports):
            single = measure_epe(aerial, grid, segments, sim.config.threshold)
            assert np.array_equal(report.values, single.values)

    def test_segment_epe_batch_matches_scalar(self, sim, grid):
        clip = clip_with_via(70)
        segments = fragment_clip(clip)
        aerials = self._aerials(sim, grid, (70, 110))
        batched = segment_epe_batch(
            aerials, grid, segments, sim.config.threshold
        )
        assert batched.shape == (2, len(segments))
        for aerial, row in zip(aerials, batched):
            assert np.array_equal(
                row, segment_epe(aerial, grid, segments, sim.config.threshold)
            )

    def test_measure_epe_grouped_heterogeneous(self, sim, grid):
        clips = [clip_with_via(70), clip_with_via(110)]
        segments = [fragment_clip(c) for c in clips]
        aerials = self._aerials(sim, grid, (70, 110))
        reports = measure_epe_grouped(
            aerials, [grid, grid], segments, sim.config.threshold
        )
        for aerial, segs, report in zip(aerials, segments, reports):
            single = measure_epe(aerial, grid, segs, sim.config.threshold)
            assert np.array_equal(report.values, single.values)

    def test_empty_segments(self, sim, grid):
        aerials = self._aerials(sim, grid, (70,))
        assert measure_epe_batch(aerials, grid, [], 0.3)[0].count == 0
        assert segment_epe_batch(aerials, grid, [], 0.3).shape == (1, 0)


class TestPVBand:
    def test_disjoint_band(self):
        inner = np.zeros((10, 10), dtype=np.uint8)
        outer = np.zeros((10, 10), dtype=np.uint8)
        inner[4:6, 4:6] = 1
        outer[3:7, 3:7] = 1
        band = pvband_image(inner, outer)
        assert band.sum() == 16 - 4
        assert pvband_area(inner, outer, pixel_nm=2.0) == 12 * 4

    def test_identical_corners_zero_band(self):
        img = np.ones((5, 5), dtype=np.uint8)
        assert pvband_area(img, img, 4.0) == 0

    def test_shape_mismatch(self):
        with pytest.raises(MetrologyError):
            pvband_image(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_bad_pixel(self):
        with pytest.raises(MetrologyError):
            pvband_area(np.zeros((2, 2)), np.zeros((2, 2)), 0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        inner = rng.random((4, 12, 12)) > 0.6
        outer = inner | (rng.random((4, 12, 12)) > 0.5)
        areas = pvband_area_batch(inner, outer, pixel_nm=3.0)
        assert areas.shape == (4,)
        for i_img, o_img, area in zip(inner, outer, areas):
            assert area == pvband_area(i_img, o_img, pixel_nm=3.0)

    def test_batch_validation(self):
        with pytest.raises(MetrologyError):
            pvband_area_batch(np.zeros((2, 2)), np.zeros((2, 2)), 4.0)
        with pytest.raises(MetrologyError):
            pvband_area_batch(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), 0.0)

    def test_real_simulation_band(self, grid):
        # A wide dose excursion guarantees a visible band even on the
        # coarse 8 nm test grid (the +/-2% default can stay sub-pixel).
        sim = LithographySimulator(
            LithoConfig(
                pixel_nm=8.0, max_kernels=8, dose_variation=0.15
            )
        )
        mask = rasterize([Polygon.from_rect(Rect.square(640, 640, 100))], grid)
        result = sim.simulate_mask(mask, grid)
        area = pvband_area(result.inner, result.outer, grid.pixel_nm)
        assert area > 0

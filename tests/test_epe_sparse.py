"""Sparse contour-point EPE path: stencil planning, band-spectrum
gather, lazy printed images and the 5-smooth ``next_fast_len`` scan.

The contract under test, end to end: ``simulate_epe_batch`` +
``measure_epe_grouped_sparse`` must reproduce the dense
``simulate_batch`` + ``measure_epe_grouped`` verifier to <= 1e-9 nm per
measure point on a mixed via+metal suite — and
each layer of the sparse stack (pixel-set planning, bilinear profile
rebuild, crossing resolution) must match its dense counterpart
*bit-for-bit* given identical inputs, so the only divergence is the
litho engine's <= 1e-12 intensity round-off.
"""

import numpy as np
import pytest

from repro.data.stdcell import stdcell_metal_clip
from repro.data.via_bench import generate_via_clip
from repro.errors import LithoError, MetrologyError
from repro.geometry import Grid, Polygon, Rect, rasterize
from repro.geometry.raster import bilinear_sample_many
from repro.geometry.segmentation import fragment_clip
from repro.litho.kernels import (
    _is_5_smooth,
    band_values_at_pixels,
    next_fast_len,
)
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.metrology.contour import (
    SparseAerial,
    _sample_coordinates,
    contour_offset_reference,
    contour_offsets_sparse,
    plan_contour_stencils,
)
from repro.metrology.epe import (
    measure_epe_grouped,
    measure_epe_grouped_sparse,
    measure_epe_sparse,
    measure_stencil_plan,
)

EPE_TOLERANCE_NM = 1e-9
INTENSITY_TOLERANCE = 1e-12

@pytest.fixture(scope="module", params=["numpy"])
def sim(request):
    """The parity suite's simulator, named by its array backend."""
    return LithographySimulator(LithoConfig(
        pixel_nm=8.0, max_kernels=4,
        backend=request.param,
    ))


@pytest.fixture(scope="module")
def mixed_suite():
    """Mixed via+metal suite spanning two raster grid shapes."""
    return [
        generate_via_clip("ev1", n_vias=2, seed=31, clip_nm=1280),
        generate_via_clip("ev2", n_vias=2, seed=32, clip_nm=1280),
        generate_via_clip("ev3", n_vias=2, seed=33, clip_nm=1024),
        stdcell_metal_clip("em1", 8, seed=5, clip_nm=1280),
    ]


def mask_stack(grid, count, seed=7):
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(count):
        cx = float(rng.integers(300, int(grid.cols * grid.pixel_nm) - 300))
        cy = float(rng.integers(300, int(grid.rows * grid.pixel_nm) - 300))
        size = float(rng.integers(60, 120))
        masks.append(
            rasterize([Polygon.from_rect(Rect.square(cx, cy, size))], grid)
        )
    return np.stack(masks)


def random_pixel_set(shape, count, seed=11):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, shape[0], size=count)
    cols = rng.integers(0, shape[1], size=count)
    return rows, cols


class TestNextFastLen:
    def test_is_smallest_5_smooth_bound(self):
        """Over 1..4096: the result is 5-smooth, >= n, and nothing
        5-smooth lies between (the subgrid sizes depend on ``n``
        alone)."""
        for n in range(1, 4097):
            m = next_fast_len(n)
            assert m >= n
            assert _is_5_smooth(m)
            assert not any(_is_5_smooth(k) for k in range(n, m))

    def test_fixed_points(self):
        # 5-smooth inputs are their own answer; 7-smooth ones are not.
        assert next_fast_len(120) == 120
        assert next_fast_len(49) == 50  # 49 = 7^2 is not 5-smooth
        assert next_fast_len(121) == 125  # 121 = 11^2 likewise

    def test_rejects_nonpositive(self):
        with pytest.raises(LithoError, match="positive"):
            next_fast_len(0)


GRID = Grid(0, 0, 8.0, 160, 160)


def dense_aerials(sim, masks):
    """The dense band-engine aerials of a rasterized mask stack."""
    return np.stack([litho.aerial for litho in sim.simulate_batch(masks, GRID)])


def lattice_values(kset, masks, rows, cols):
    """The verifier's sparse intensity: image the stack once on the
    pupil-band subgrid, then lift the pixel set with the lattice
    gather."""
    sub = kset.subgrid_intensity(masks)
    return band_values_at_pixels(
        sub, kset.band_spectra(masks.shape[-2:]), rows, cols
    )


class TestSparseIntensity:
    def test_matches_dense_gather_on_compact_band(self, sim):
        kset = sim.kernel_set(0.0)
        masks = mask_stack(GRID, 3)
        dense = dense_aerials(sim, masks)
        rows, cols = random_pixel_set(GRID.shape, 200)
        sparse = lattice_values(kset, masks, rows, cols)
        assert sparse.shape == (3, 200)
        assert np.abs(sparse - dense[:, rows, cols]).max() < INTENSITY_TOLERANCE

    def test_rfft_entry_matches_full_spectrum_entry(self, sim):
        """The pupil band rebuilt from half-width spectra by Hermitian
        symmetry lifts to the same pixel values as the band gathered
        from the full spectra."""
        kset = sim.kernel_set(0.0)
        band = kset.band_spectra(GRID.shape)
        masks = mask_stack(GRID, 2)
        rows, cols = random_pixel_set(GRID.shape, 150)
        spectra = np.fft.fft2(masks, axes=(-2, -1))
        full_band = np.zeros((len(masks), *band.subgrid), dtype=complex)
        full_band[:, band.rows_dst[:, None], band.cols_dst[None, :]] = (
            spectra[:, band.rows_src[:, None], band.cols_src[None, :]]
        )
        intensity = sum(
            weight * np.abs(np.fft.ifft2(full_band * kernel, axes=(-2, -1))) ** 2
            for weight, kernel in zip(band.weights, band.sub_spectra)
        )
        via_fft = band_values_at_pixels(intensity, band, rows, cols)
        via_rfft = lattice_values(kset, masks, rows, cols)
        assert np.abs(via_rfft - via_fft).max() < INTENSITY_TOLERANCE

    def test_non_compact_fallback_is_exact(self):
        """When the pupil band spans the grid there is no sparse fast
        path; simulate_epe_batch must fall back to the dense engine plus
        a gather — bit-for-bit, not merely close."""
        sim = LithographySimulator(LithoConfig(
            pixel_nm=40.0, max_kernels=4, backend="numpy",
        ))
        clip = generate_via_clip("nc1", n_vias=2, seed=31, clip_nm=1280)
        grid = sim.grid_for(clip)
        assert not sim.kernel_set(0.0).band_spectra(grid.shape).compact
        mask = rasterize(clip.targets, grid)
        plan = measure_stencil_plan(grid, fragment_clip(clip))
        (sparse,) = sim.simulate_epe_batch(mask[None], grid, plan)
        dense = sim.simulate_batch(mask[None], grid)[0]
        assert np.array_equal(
            sparse.values, dense.aerial[plan.pixel_rows, plan.pixel_cols]
        )

    def test_out_of_range_pixels_rejected(self, sim):
        kset = sim.kernel_set(0.0)
        masks = mask_stack(GRID, 1)
        with pytest.raises(LithoError, match="outside"):
            lattice_values(
                kset, masks, np.array([0, GRID.rows]), np.array([0, 0])
            )
        with pytest.raises(LithoError, match="1-D"):
            lattice_values(kset, masks, np.array([0, 1]), np.array([0]))

    @pytest.mark.parametrize("case", [
        "duplicated_unsorted", "single_row", "single_col", "one_pixel",
    ])
    def test_lattice_gather_on_awkward_pixel_sets(self, sim, case):
        """The gather evaluates a rows x cols lattice and picks pixels out
        of it: repeated, unsorted, one-row, one-column and one-pixel sets
        must all match the dense engine."""
        rows, cols = {
            "duplicated_unsorted": (
                np.array([120, 5, 77, 5, 120, 33]),
                np.array([9, 150, 9, 150, 9, 64]),
            ),
            "single_row": (np.full(12, 41), np.arange(100, 64, -3)),
            "single_col": (np.arange(3, 159, 13), np.full(12, 97)),
            "one_pixel": (np.array([58]), np.array([131])),
        }[case]
        kset = sim.kernel_set(0.0)
        masks = mask_stack(GRID, 3)
        dense = dense_aerials(sim, masks)[:, rows, cols]
        sparse = lattice_values(kset, masks, rows, cols)
        assert sparse.shape == dense.shape == (3, len(rows))
        assert np.abs(sparse - dense).max() < INTENSITY_TOLERANCE

    def test_verifying_distinct_clips_retains_no_state(self):
        """Verification sees each clip once, so nothing per pixel set may
        outlive the call: verifying 8 distinct metal clips of one shape
        grows the traced peak by well under one cached gather matrix
        per clip."""
        import tracemalloc

        sim = LithographySimulator(LithoConfig(backend="numpy"))
        clips = [
            stdcell_metal_clip(f"tm{i}", 64, seed=600 + i) for i in range(9)
        ]
        grid = sim.grid_for(clips[0])

        def verify(clip):
            plan = measure_stencil_plan(grid, fragment_clip(clip))
            mask = rasterize(clip.targets, grid)
            sim.simulate_epe_batch(mask[None], grid, plan)

        verify(clips[0])  # band spectra for the shared grid shape
        assert all(sim.grid_for(clip) == grid for clip in clips)
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            for clip in clips[1:]:
                verify(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - baseline < 100 * 2**20


class TestStencilPlan:
    @staticmethod
    def _geometry(grid, n=9, seed=3):
        rng = np.random.default_rng(seed)
        span_x = grid.cols * grid.pixel_nm
        span_y = grid.rows * grid.pixel_nm
        points = np.stack([
            rng.uniform(0.15 * span_x, 0.85 * span_x, n),
            rng.uniform(0.15 * span_y, 0.85 * span_y, n),
        ], axis=1)
        angles = rng.uniform(0, 2 * np.pi, n)
        normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return points, normals

    def test_profiles_bit_for_bit_vs_dense_sampler(self):
        grid = Grid(0, 0, 8.0, 64, 64)
        points, normals = self._geometry(grid)
        plan = plan_contour_stencils(grid, points, normals)
        image = np.random.default_rng(5).uniform(0, 1, grid.shape)
        values = image[plan.pixel_rows, plan.pixel_cols]
        xs, ys = _sample_coordinates(points, normals, plan.offsets)
        dense = bilinear_sample_many(image, grid, xs, ys).reshape(
            len(points), len(plan.offsets)
        )
        assert np.array_equal(plan.profiles(values), dense)

    def test_resolve_bit_for_bit_vs_dense_contour(self):
        """The plan resolves exactly like the independent scalar
        reference: dense bilinear samples, one crossing walk per point."""
        grid = Grid(0, 0, 8.0, 64, 64)
        points, normals = self._geometry(grid, seed=13)
        plan = plan_contour_stencils(grid, points, normals)
        # A smooth bump so profiles actually cross a mid threshold.
        yy, xx = np.mgrid[0:64, 0:64]
        image = np.exp(-((xx - 32) ** 2 + (yy - 32) ** 2) / 300.0)
        values = image[plan.pixel_rows, plan.pixel_cols]
        dense = contour_offset_reference(
            image, grid, points, normals, threshold=0.4
        )
        assert np.array_equal(plan.resolve(values, 0.4), dense)

    def test_border_stencils_match_dense_samplers(self):
        """Out-of-raster search samples: every path must apply the one
        `_bilinear_weights` clamping rule.  Points sit on (and beyond)
        the raster border with outward normals, so most of each search
        window falls off the grid."""
        grid = Grid(0, 0, 8.0, 32, 32)
        span = 32 * 8.0
        points = np.array([
            [0.0, 100.0],          # on the left edge
            [span, 140.0],         # on the right edge
            [120.0, 0.0],          # on the bottom edge
            [-30.0, 50.0],         # fully outside the raster
            [span + 25.0, span],   # outside past the far corner
        ])
        normals = np.array([
            [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0],
            [-0.7071, -0.7071], [0.7071, 0.7071],
        ])
        images = np.random.default_rng(17).uniform(0, 1, (3, 32, 32))
        plan = plan_contour_stencils(grid, points, normals)
        # Every clamped stencil index stays on the raster.
        assert plan.pixel_rows.min() >= 0 and plan.pixel_rows.max() < 32
        assert plan.pixel_cols.min() >= 0 and plan.pixel_cols.max() < 32
        xs, ys = _sample_coordinates(points, normals, plan.offsets)
        for image in images:
            many = bilinear_sample_many(image, grid, xs, ys)
            sparse = plan.profiles(image[plan.pixel_rows, plan.pixel_cols])
            assert np.array_equal(
                sparse, many.reshape(len(points), len(plan.offsets))
            )
            # And the resolved offsets agree bit-for-bit too.
            dense_offsets = contour_offset_reference(
                image, grid, points, normals, threshold=0.5
            )
            assert np.array_equal(
                plan.resolve(
                    image[plan.pixel_rows, plan.pixel_cols], 0.5
                ),
                dense_offsets,
            )

    def test_plan_cache_returns_same_object(self):
        grid = Grid(0, 0, 8.0, 48, 48)
        points, normals = self._geometry(grid, n=4, seed=29)
        first = plan_contour_stencils(grid, points, normals)
        second = plan_contour_stencils(grid, points.copy(), normals.copy())
        assert second is first
        widened = plan_contour_stencils(grid, points, normals, search_nm=60.0)
        assert widened is not first

    def test_mixed_search_windows_rejected(self):
        grid = Grid(0, 0, 8.0, 48, 48)
        points, normals = self._geometry(grid, n=4, seed=29)
        narrow = plan_contour_stencils(grid, points, normals, search_nm=20.0)
        wide = plan_contour_stencils(grid, points, normals, search_nm=40.0)
        aerials = [
            SparseAerial(plan=plan, values=np.zeros(plan.n_pixels))
            for plan in (narrow, wide)
        ]
        with pytest.raises(MetrologyError, match="search windows"):
            contour_offsets_sparse(aerials, 0.5)


class TestLazyPrinted:
    def test_matches_eager_thresholding_and_caches(self, sim):
        from repro.litho.resist import printed_image

        grid = Grid(0, 0, 8.0, 128, 128)
        result = sim.simulate_batch(mask_stack(grid, 1), grid)[0]
        printed = result.printed
        assert set(printed) == {"nominal", "inner", "outer"}
        assert len(printed) == 3
        nominal, inner, outer = sim.corners()
        expected = {
            "nominal": printed_image(
                result.aerial, sim.config.threshold, nominal.dose
            ),
            "inner": printed_image(
                result.aerial_defocus, sim.config.threshold, inner.dose
            ),
            "outer": printed_image(
                result.aerial_defocus, sim.config.threshold, outer.dose
            ),
        }
        for corner in printed:
            assert np.array_equal(printed[corner], expected[corner])
            assert printed[corner] is printed[corner]  # cached object

    def test_simulate_batch_result_printed_is_lazy(self, sim):
        from repro.litho.simulator import LazyPrinted

        grid = Grid(0, 0, 8.0, 128, 128)
        result = sim.simulate_batch(mask_stack(grid, 1), grid)[0]
        assert isinstance(result.printed, LazyPrinted)
        assert "materialized=[]" in repr(result.printed)
        result.printed["nominal"]
        assert "materialized=['nominal']" in repr(result.printed)


class TestEndToEndParity:
    def test_sparse_matches_dense_verifier_on_mixed_suite(
        self, sim, mixed_suite
    ):
        """The headline gate: sparse EPE within
        1e-9 nm of the dense pipeline on every measure point of a mixed
        via+metal suite."""
        threshold = sim.config.threshold
        for clip in mixed_suite:
            grid = sim.grid_for(clip)
            segments = fragment_clip(clip)
            mask = rasterize(clip.targets, grid)
            dense_litho = sim.simulate_batch(mask[None], grid)[0]
            (dense_report,) = measure_epe_grouped(
                dense_litho.aerial[None], [grid], [segments], threshold
            )
            plan = measure_stencil_plan(grid, segments)
            (sparse_aerial,) = sim.simulate_epe_batch(mask[None], grid, plan)
            sparse_report = measure_epe_sparse(sparse_aerial, threshold)
            assert sparse_report.count == dense_report.count > 0
            assert np.abs(
                sparse_report.values - dense_report.values
            ).max() < EPE_TOLERANCE_NM

    def test_grouped_sparse_matches_grouped_dense(self, sim, mixed_suite):
        """Batched shape-bin flush shape: same-raster clips with
        different geometry through one simulate_epe_batch call."""
        threshold = sim.config.threshold
        same_shape = [c for c in mixed_suite if c.name != "ev3"]
        grids = [sim.grid_for(clip) for clip in same_shape]
        segments = [fragment_clip(clip) for clip in same_shape]
        stack = np.stack([
            rasterize(clip.targets, grid)
            for clip, grid in zip(same_shape, grids)
        ])
        dense = sim.simulate_batch(stack, grids[0])
        dense_reports = measure_epe_grouped(
            np.stack([litho.aerial for litho in dense]),
            grids, segments, threshold,
        )
        plans = [
            measure_stencil_plan(grid, segs)
            for grid, segs in zip(grids, segments)
        ]
        sparse = sim.simulate_epe_batch(stack, grids[0], plans)
        sparse_reports = measure_epe_grouped_sparse(sparse, threshold)
        for got, ref in zip(sparse_reports, dense_reports):
            assert got.count == ref.count
            assert np.abs(got.values - ref.values).max() < EPE_TOLERANCE_NM

    def test_batch_is_bit_for_bit_single_mask_calls(self, sim, mixed_suite):
        """B masks in one call, as a stack, as rasters, as polygon sets
        and mixed, give each mask's single-mask values as int64 bits; a
        ``None`` plan gives ``None``."""
        same_shape = [c for c in mixed_suite if c.name != "ev3"]
        grid = sim.grid_for(same_shape[0])
        polygons = [tuple(clip.targets) for clip in same_shape]
        polygons.append((Polygon.from_rect(Rect.square(640, 640, 90)),))
        rasters = [rasterize(polys, grid) for polys in polygons]
        plans = [
            measure_stencil_plan(grid, fragment_clip(clip))
            for clip in same_shape
        ] + [None]
        singles = [
            sim.simulate_epe_batch(raster[None], grid, [plan])[0]
            for raster, plan in zip(rasters, plans)
        ]
        mixed = [rasters[0], *polygons[1:]]
        for masks in (np.stack(rasters), rasters, polygons, mixed):
            got = sim.simulate_epe_batch(masks, grid, plans)
            assert got[-1] is singles[-1] is None
            for aerial, single in zip(got[:-1], singles):
                assert aerial.plan is single.plan
                assert np.array_equal(
                    aerial.values.view(np.int64), single.values.view(np.int64)
                )

    def test_stack_and_sequence_raise_alike(self, sim, mixed_suite):
        clip = mixed_suite[0]
        grid = sim.grid_for(clip)
        plan = measure_stencil_plan(grid, fragment_clip(clip))
        mask = rasterize(clip.targets, grid)
        with pytest.raises(LithoError, match="empty"):
            sim.simulate_epe_batch([], grid, plan)
        with pytest.raises(LithoError, match="empty"):
            sim.simulate_epe_batch(np.empty((0, *grid.shape)), grid, plan)
        with pytest.raises(LithoError, match="grid"):
            sim.simulate_epe_batch([mask, mask[:-8]], grid, plan)
        with pytest.raises(LithoError, match="grid"):
            sim.simulate_epe_batch(mask[None, :-8], grid, plan)
        with pytest.raises(LithoError, match="2 masks"):
            sim.simulate_epe_batch([mask, clip.targets], grid, [plan])

    def test_shared_plan_broadcasts_across_the_batch(self, sim, mixed_suite):
        """Candidate screening shape: one plan, B mask variants."""
        clip = mixed_suite[0]
        grid = sim.grid_for(clip)
        base = rasterize(clip.targets, grid)
        stack = np.stack([base, np.clip(base * 0.8, 0, 1), base])
        plan = measure_stencil_plan(grid, fragment_clip(clip))
        shared = sim.simulate_epe_batch(stack, grid, plan)
        listed = sim.simulate_epe_batch(stack, grid, [plan] * 3)
        for a, b in zip(shared, listed):
            assert a.plan is b.plan is plan
            assert np.array_equal(a.values, b.values)
        # Identical masks in one batch get identical values.
        assert np.array_equal(shared[0].values, shared[2].values)

    def test_none_plans_yield_none_and_empty_reports(self, sim, mixed_suite):
        clip = mixed_suite[0]
        grid = sim.grid_for(clip)
        mask = rasterize(clip.targets, grid)
        results = sim.simulate_epe_batch(mask[None], grid, None)
        assert results == [None]
        (report,) = measure_epe_grouped_sparse(results, sim.config.threshold)
        assert report.count == 0 and report.total_abs == 0.0

    def test_plan_grid_shape_mismatch_rejected(self, sim, mixed_suite):
        big = sim.grid_for(mixed_suite[0])    # 160x160
        small = sim.grid_for(mixed_suite[2])  # 128x128
        plan = measure_stencil_plan(small, fragment_clip(mixed_suite[2]))
        mask = rasterize(mixed_suite[0].targets, big)
        with pytest.raises(LithoError, match="does not match"):
            sim.simulate_epe_batch(mask[None], big, plan)


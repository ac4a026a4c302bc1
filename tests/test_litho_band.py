"""Frequency-native engine tests: per-grid TCC lattices, band-limited
SOCS spectra, and the exactness acceptance of the unified subgrid engine
(max |dI| <= 1e-9 against the retained spatial reference path)."""

import numpy as np
import pytest

from repro.errors import LithoError
from repro.geometry import Grid, Polygon, Rect, rasterize
from repro.litho import (
    LithoConfig,
    LithographySimulator,
    build_kernel_set,
    build_tcc_grid,
    socs_spectra,
)
from repro.litho.source import SourceSpec
from repro.litho.tcc import build_tcc, elliptic_lattice

MAX_ABS_ERROR = 1e-9


class TestGridLattice:
    def test_elliptic_lattice_isotropic_matches_disk(self):
        pts = elliptic_lattice(5, 5, 1.0, 1.0, 5.0)
        assert [0, 0] in pts.tolist()
        assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 25)

    def test_elliptic_lattice_anisotropy(self):
        """Finer row spacing admits more row indices under the cutoff."""
        pts = elliptic_lattice(10, 10, 0.5, 1.0, 5.0)
        assert np.abs(pts[:, 0]).max() == 10
        assert np.abs(pts[:, 1]).max() == 5

    def test_grid_tcc_refines_square_build(self):
        """On a square grid, build_tcc_grid shares the square build's
        lattice spacing and covers at least its lattice (the grid build
        keeps the full physical pupil disk |f| <= cutoff, while the
        legacy square build rounds to an integer index radius)."""
        grid_tcc = build_tcc_grid(SourceSpec(), (128, 128), 8.0)
        square_tcc = build_tcc(SourceSpec(), period_nm=1024.0)
        assert grid_tcc.lattice_spacing == square_tcc.lattice_spacing
        grid_pts = {tuple(p) for p in grid_tcc.shift_indices}
        square_pts = {tuple(p) for p in square_tcc.shift_indices}
        assert square_pts <= grid_pts

    def test_non_square_grid_band(self):
        tcc = build_tcc_grid(SourceSpec(), (176, 144), 8.0)
        b0, b1 = tcc.band_radii
        # Finer row spacing (taller window) admits a wider row band.
        assert b0 > b1 >= 2
        with pytest.raises(LithoError, match="single spacing"):
            tcc.lattice_spacing

    def test_too_small_grid_rejected(self):
        with pytest.raises(LithoError, match="too coarse"):
            build_tcc_grid(SourceSpec(), (16, 16), 8.0)

    def test_socs_spectra_align_with_lattice(self):
        tcc = build_tcc_grid(SourceSpec(), (128, 128), 8.0)
        weights, coefficients = socs_spectra(tcc, max_kernels=4)
        assert coefficients.shape == (len(weights), len(tcc.shift_indices))
        assert np.all(weights >= 0)
        assert np.all(np.diff(weights) <= 1e-12)


@pytest.fixture(scope="module")
def simulator():
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=8, backend="numpy")
    )


def pattern_masks(grid, count=3):
    rng = np.random.default_rng(7)
    masks = []
    for _ in range(count):
        polys = []
        for _ in range(2):
            cx = float(rng.integers(420, int(grid.cols * grid.pixel_nm) - 420))
            cy = float(rng.integers(420, int(grid.rows * grid.pixel_nm) - 420))
            size = float(rng.integers(60, 130))
            polys.append(Polygon.from_rect(Rect.square(cx, cy, size)))
        masks.append(rasterize(polys, grid))
    return masks


class TestExactness:
    """Acceptance: the unified engine matches the retained spatial
    reference to <= 1e-9 max absolute intensity error."""

    @pytest.mark.parametrize(
        "grid",
        [
            Grid(0, 0, 8.0, 160, 160),
            Grid(0, 0, 8.0, 250, 250),
            Grid(0, 0, 8.0, 176, 144),
            Grid(0, 0, 4.0, 320, 320),
        ],
        ids=["square-160", "square-250", "non-square", "production-4nm"],
    )
    def test_band_engine_matches_reference(self, simulator, grid):
        masks = pattern_masks(grid)
        batched = simulator.simulate_batch(np.stack(masks), grid)
        for mask, result in zip(masks, batched):
            reference = simulator.simulate_mask(mask, grid)
            assert (
                np.abs(result.aerial - reference.aerial).max() < MAX_ABS_ERROR
            )
            assert (
                np.abs(result.aerial_defocus - reference.aerial_defocus).max()
                < MAX_ABS_ERROR
            )
            for corner in ("nominal", "inner", "outer"):
                assert np.array_equal(
                    result.printed[corner], reference.printed[corner]
                )

    def test_open_frame_images_to_unity(self, simulator):
        grid = Grid(0, 0, 8.0, 160, 160)
        result = simulator.simulate_batch(np.ones((1, 160, 160)), grid)[0]
        assert np.abs(result.aerial - 1.0).max() < 1e-12

    def test_per_grid_weights_are_normalized(self, simulator):
        for shape in ((160, 160), (176, 144)):
            band = simulator.kernel_set(0.0).band_spectra(shape)
            dc = band.sub_spectra[:, 0, 0] * (
                shape[0] * shape[1] / (band.subgrid[0] * band.subgrid[1])
            )
            assert np.sum(band.weights * np.abs(dc) ** 2) == pytest.approx(1.0)


class TestBandCaches:
    def test_band_spectra_cached_per_shape(self, simulator):
        kernel_set = simulator.kernel_set(0.0)
        a = kernel_set.band_spectra((160, 160))
        b = kernel_set.band_spectra((160, 160))
        assert a is b

    def test_band_cache_lru_eviction(self):
        kernel_set = build_kernel_set(
            pixel_nm=8.0, max_kernels=4,
            backend="numpy",
        )
        kernel_set._band_cache.clear()
        capacity = kernel_set.fft_cache_capacity
        shapes = [(96 + 4 * i, 96 + 4 * i) for i in range(capacity + 2)]
        for shape in shapes:
            kernel_set.band_spectra(shape)
        assert len(kernel_set._band_cache) == capacity
        assert shapes[0] not in kernel_set._band_cache
        # Recomputation after eviction reproduces the spectra exactly.
        rebuilt = kernel_set.band_spectra(shapes[0])
        fresh = kernel_set._build_band_spectra(shapes[0])
        assert np.array_equal(rebuilt.sub_spectra, fresh.sub_spectra)
        assert np.array_equal(rebuilt.weights, fresh.weights)


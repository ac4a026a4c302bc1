"""Integration tests for the lithography simulator facade."""

import numpy as np
import pytest

from repro.errors import LithoError
from repro.geometry import Clip, Grid, Polygon, Rect, rasterize
from repro.litho import LithoConfig, LithographySimulator
from repro.litho.process import nominal_corner, standard_corners
from repro.litho.resist import printed_image


@pytest.fixture(scope="module")
def sim():
    # Module-scoped: kernel construction is the expensive part.
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=8)
    )


@pytest.fixture(scope="module")
def grid():
    return Grid(0, 0, 8.0, 160, 160)  # 1280 nm window


def via_mask(grid, size=90, cx=640, cy=640):
    return rasterize([Polygon.from_rect(Rect.square(cx, cy, size))], grid)


class TestCorners:
    def test_nominal(self):
        c = nominal_corner()
        assert c.defocus_nm == 0 and c.dose == 1

    def test_standard_triple(self):
        nominal, inner, outer = standard_corners()
        assert inner.dose < 1 < outer.dose
        assert inner.defocus_nm == outer.defocus_nm > 0

    def test_bad_dose_variation(self):
        with pytest.raises(LithoError):
            standard_corners(dose_variation=1.5)


class TestResist:
    def test_threshold_cut(self):
        aerial = np.array([[0.1, 0.3], [0.225, 0.2]])
        printed = printed_image(aerial, threshold=0.225)
        assert printed.tolist() == [[0, 1], [1, 0]]

    def test_dose_scales_threshold(self):
        aerial = np.array([[0.22]])
        assert printed_image(aerial, 0.225, dose=1.0)[0, 0] == 0
        assert printed_image(aerial, 0.225, dose=1.05)[0, 0] == 1

    def test_invalid_params(self):
        with pytest.raises(LithoError):
            printed_image(np.ones((2, 2)), threshold=0)
        with pytest.raises(LithoError):
            printed_image(np.ones((2, 2)), dose=-1)


class TestSimulator:
    def test_larger_mask_prints_larger(self, sim, grid):
        small = sim.simulate_mask(via_mask(grid, size=90), grid)
        large = sim.simulate_mask(via_mask(grid, size=110), grid)
        assert large.nominal.sum() > small.nominal.sum()

    def test_corner_ordering_inner_outer(self, sim, grid):
        """Within the defocused pair, dose is monotone: the under-dosed
        corner prints a subset of the over-dosed one.  (The focused nominal
        image is *not* ordered against the defocused corners — defocus blur
        can outweigh the dose excursion.)"""
        result = sim.simulate_mask(via_mask(grid, size=100), grid)
        inner = result.inner.astype(bool)
        outer = result.outer.astype(bool)
        assert inner.sum() <= outer.sum()
        assert np.all(outer[inner])  # strict subset relation, not just area

    def test_defocus_blurs(self, sim, grid):
        mask = via_mask(grid, size=100)
        focus = sim.aerial(mask, defocus_nm=0.0)
        blur = sim.aerial(mask, defocus_nm=sim.config.defocus_nm)
        assert blur.max() < focus.max()

    def test_simulate_polygons_matches_mask(self, sim, grid):
        poly = Polygon.from_rect(Rect.square(640, 640, 100))
        from_polys = sim.simulate_polygons([poly], grid)
        from_mask = sim.simulate_mask(rasterize([poly], grid), grid)
        assert np.array_equal(from_polys.nominal, from_mask.nominal)

    def test_grid_for_clip(self, sim):
        clip = Clip(
            name="t",
            bbox=Rect(0, 0, 1280, 1280),
            targets=(Polygon.from_rect(Rect.square(640, 640, 70)),),
        )
        g = sim.grid_for(clip)
        assert g.shape == (160, 160)
        assert g.pixel_nm == sim.config.pixel_nm

    def test_aerial_symmetry_of_symmetric_mask(self, sim, grid):
        """A square mask centred on the grid diagonal gives an image
        symmetric under transposition (x <-> y exchange).  The tolerance
        allows for kernel-count truncation splitting degenerate x/y
        eigenvalue pairs of the TCC."""
        aerial = sim.aerial(via_mask(grid, size=100))
        assert np.allclose(aerial, aerial.T, atol=2e-3)

    def test_kernel_set_cached(self, sim):
        assert sim.kernel_set(0.0) is sim.kernel_set(0.0)

    def test_config_validation(self):
        with pytest.raises(LithoError):
            LithoConfig(pixel_nm=-1)
        with pytest.raises(LithoError):
            LithoConfig(backend="fftw")

"""Tests for TCC construction and SOCS spectra generation."""

import numpy as np
import pytest

from repro.errors import LithoError
from repro.litho.kernels import build_kernel_set
from repro.litho.source import SourceSpec
from repro.litho.tcc import build_tcc, frequency_lattice, socs_spectra

SMALL = dict(period_nm=1024.0)


@pytest.fixture(scope="module")
def tcc():
    return build_tcc(SourceSpec(), **SMALL)


@pytest.fixture(scope="module")
def kernel_set():
    return build_kernel_set(pixel_nm=8.0, backend="numpy")


class TestLattice:
    def test_origin_always_included(self):
        pts = frequency_lattice(3)
        assert [0, 0] in pts.tolist()

    def test_radius_respected(self):
        pts = frequency_lattice(5)
        assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 25)

    def test_count_grows_quadratically(self):
        assert len(frequency_lattice(10)) > 3 * len(frequency_lattice(5))


class TestTCC:
    def test_hermitian(self, tcc):
        assert np.allclose(tcc.matrix, tcc.matrix.conj().T, atol=1e-12)

    def test_positive_semidefinite(self, tcc):
        eigvals = np.linalg.eigvalsh(tcc.matrix)
        assert eigvals.min() > -1e-10

    def test_dc_term_is_unity(self, tcc):
        """TCC(0,0) = 1: every source point passes the pupil unattenuated."""
        origin = np.nonzero(
            (tcc.shift_indices[:, 0] == 0) & (tcc.shift_indices[:, 1] == 0)
        )[0][0]
        assert tcc.matrix[origin, origin].real == pytest.approx(1.0)
        assert tcc.matrix[origin, origin].imag == pytest.approx(0.0, abs=1e-12)

    def test_focus_tcc_is_real(self):
        tcc = build_tcc(SourceSpec(), defocus_nm=0.0, **SMALL)
        assert np.abs(tcc.matrix.imag).max() < 1e-12

    def test_defocus_tcc_is_complex(self):
        tcc = build_tcc(SourceSpec(), defocus_nm=25.0, **SMALL)
        assert np.abs(tcc.matrix.imag).max() > 1e-6

    def test_coarse_lattice_rejected(self):
        with pytest.raises(LithoError):
            build_tcc(SourceSpec(), period_nm=100.0)

    def test_bad_period_rejected(self):
        with pytest.raises(LithoError):
            build_tcc(SourceSpec(), period_nm=-5)


class TestSOCS:
    def test_weights_descending_nonnegative(self, tcc):
        weights, _ = socs_spectra(tcc)
        assert np.all(weights >= 0)
        assert np.all(np.diff(weights) <= 1e-12)

    def test_first_kernel_dominates(self, tcc):
        weights, _ = socs_spectra(tcc)
        assert weights[0] > 0.5 * weights.sum()

    def test_kernel_count_capped(self, tcc):
        weights, coefficients = socs_spectra(tcc, max_kernels=3)
        assert len(weights) == len(coefficients) == 3
        assert coefficients.shape[1] == len(tcc.shift_indices)

    def test_bad_energy_fraction(self, tcc):
        with pytest.raises(LithoError):
            socs_spectra(tcc, energy_fraction=0.0)


class TestKernelSet:
    def test_open_frame_normalized(self, kernel_set):
        mask = np.ones((192, 192))
        intensity = kernel_set.convolve_intensity(mask)
        assert intensity.mean() == pytest.approx(1.0, rel=1e-6)
        assert intensity.std() < 1e-6

    def test_dark_frame_zero(self, kernel_set):
        mask = np.zeros((192, 192))
        assert kernel_set.convolve_intensity(mask).max() == 0

    def test_intensity_nonnegative(self, kernel_set):
        rng = np.random.default_rng(0)
        mask = (rng.random((192, 192)) > 0.7).astype(float)
        assert kernel_set.convolve_intensity(mask).min() >= 0

    def test_translation_equivariance(self, kernel_set):
        """Shifting the mask shifts the aerial image (circular)."""
        mask = np.zeros((192, 192))
        mask[60:80, 60:80] = 1
        base = kernel_set.convolve_intensity(mask)
        rolled = kernel_set.convolve_intensity(np.roll(mask, (7, 11), axis=(0, 1)))
        assert np.allclose(np.roll(base, (7, 11), axis=(0, 1)), rolled, atol=1e-9)

    def test_window_too_small_rejected(self, kernel_set):
        """A 128 nm window holds no usable pupil band."""
        with pytest.raises(LithoError, match="too coarse"):
            kernel_set.convolve_intensity(np.ones((16, 16)))

    def test_non_2d_rejected(self, kernel_set):
        with pytest.raises(LithoError):
            kernel_set.convolve_intensity(np.ones((4, 192, 192)))

    def test_cache_reuse(self):
        a = build_kernel_set(pixel_nm=8.0)
        b = build_kernel_set(pixel_nm=8.0)
        assert a is b

"""Tests for TCC construction and SOCS spectra generation."""

import os

import numpy as np
import pytest

from repro.errors import LithoError
from repro.litho.kernels import build_kernel_set
from repro.litho.source import SourceSpec
from repro.litho.tcc import (
    CLUSTER_RTOL,
    TCCResult,
    build_tcc,
    build_tcc_grid,
    frequency_lattice,
    socs_spectra,
)

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


def synthetic_tcc(eigenvalues) -> TCCResult:
    """A TCC with the given spectrum in a random orthonormal basis, as
    its square factor ``diag(sqrt(lambda)) basis^H``."""
    rng = np.random.default_rng(0)
    n = len(eigenvalues)
    basis, _ = np.linalg.qr(
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    )
    root = np.sqrt(np.asarray(eigenvalues, dtype=float))
    return TCCResult(
        factor=root[:, None] * basis.conj().T,
        shift_indices=np.zeros((n, 2), dtype=np.int64),
        lattice_spacing_rc=(1.0, 1.0),
    )


def clusters(eigenvalues) -> list[slice]:
    """Descending eigenvalues grouped by the truncation's cluster rule."""
    gaps = eigenvalues[:-1] - eigenvalues[1:]
    ends = list(np.flatnonzero(gaps > CLUSTER_RTOL * eigenvalues[:-1]) + 1)
    starts = [0] + ends
    return [slice(a, b) for a, b in zip(starts, ends + [len(eigenvalues)])]


def socs_image(mask, tcc, weights, coefficients) -> np.ndarray:
    """Full-grid SOCS intensity of kernels given on the TCC lattice."""
    shape = mask.shape
    rows = tcc.shift_indices[:, 0] % shape[0]
    cols = tcc.shift_indices[:, 1] % shape[1]
    mask_fft = np.fft.fft2(mask)
    image = np.zeros(shape)
    for weight, coefficient in zip(weights, coefficients):
        spectrum = np.zeros(shape, dtype=np.complex128)
        spectrum[rows, cols] = coefficient
        field = np.fft.ifft2(mask_fft * spectrum)
        image += weight * (field.real**2 + field.imag**2)
    return image


class TestClusterAwareTruncation:
    def test_cap_rounds_down_to_a_cluster_boundary(self):
        tcc = synthetic_tcc([4.0, 2.0, 1.0, 1.0, 1.0, 0.5])
        for cap, kept in ((2, 2), (3, 2), (4, 2), (5, 5), (6, 6)):
            weights, coefficients = socs_spectra(
                tcc, max_kernels=cap, energy_fraction=1.0
            )
            assert len(weights) == len(coefficients) == kept

    def test_energy_cut_rounds_up_to_the_end_of_its_cluster(self):
        # 0.75 of the energy is reached inside the {1, 1, 1} cluster.
        tcc = synthetic_tcc([4.0, 2.0, 1.0, 1.0, 1.0, 0.5])
        weights, _ = socs_spectra(tcc, max_kernels=6, energy_fraction=0.75)
        assert len(weights) == 5

    def test_cap_inside_the_leading_cluster_raises(self):
        tcc = synthetic_tcc([3.0, 3.0, 1.0])
        with pytest.raises(LithoError, match="leading eigenvalue cluster"):
            socs_spectra(tcc, max_kernels=1)

    def test_golden_config_drops_the_split_pair(self):
        """At 8 nm / 8 kernels the focus TCC's eigenvalues 8 and 9 are
        equal, so only 7 focus kernels are kept."""
        kset = build_kernel_set(pixel_nm=8.0, max_kernels=8, backend="numpy")
        tcc = build_tcc_grid(kset.source, (188, 188), kset.pixel_nm)
        eigvals = np.sort(np.linalg.eigvalsh(tcc.matrix))[::-1]
        assert eigvals[7] - eigvals[8] < 1e-12 * eigvals[0]
        weights, _ = socs_spectra(tcc, max_kernels=8)
        assert len(weights) == 7
        assert eigvals[6] - eigvals[7] > CLUSTER_RTOL * eigvals[6]

    def test_intensity_invariant_under_unitary_mix_of_each_cluster(self):
        """LAPACK may return any orthonormal basis of an eigenspace.  The
        cut never splits a cluster, so remixing every cluster of the
        full spectrum by a random unitary leaves the image unchanged."""
        source = build_kernel_set(pixel_nm=8.0, backend="numpy").source
        tcc = build_tcc_grid(source, (188, 188), 8.0)
        weights, coefficients = socs_spectra(tcc, max_kernels=8)
        eigvals, eigvecs = np.linalg.eigh(tcc.matrix)
        eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
        groups = clusters(eigvals[: len(weights) + 1])
        assert any(group.stop - group.start > 1 for group in groups)
        rng = np.random.default_rng(5)
        mixed = eigvecs.astype(np.complex128)
        for group in groups:
            size = group.stop - group.start
            unitary, _ = np.linalg.qr(
                rng.normal(size=(size, size))
                + 1j * rng.normal(size=(size, size))
            )
            mixed[:, group] = eigvecs[:, group] @ unitary
        mask = np.zeros((188, 188))
        mask[40:90, 60:75] = 1.0
        mask[100:110, 20:160] = 1.0
        reference = socs_image(mask, tcc, weights, coefficients)
        remixed = socs_image(
            mask, tcc, weights, mixed[:, : len(weights)].T
        )
        assert np.abs(remixed - reference).max() < 1e-12


GRAM_CASES = {
    # name: (pixel_nm, grid shape, max_kernels) — the via and metal
    # benchmark grids at the default optics, and the golden grid.
    "via": (4.0, (500, 500), 12),
    "metal": (4.0, (375, 375), 12),
    "golden": (8.0, (188, 188), 8),
}


def padded(tcc: TCCResult) -> TCCResult:
    """The same TCC with zero rows appended to its factor until it is
    square: its Gram ``F F^H`` is ``n x n`` with ``n - S`` exact zero
    eigenvalues, as a Nyquist-clipped lattice would give."""
    sources, n = tcc.factor.shape
    factor = np.vstack([tcc.factor, np.zeros((n - sources, n))])
    return TCCResult(factor, tcc.shift_indices, tcc.lattice_spacing_rc)


@pytest.fixture(scope="module")
def golden_mask():
    path = os.path.join(os.path.dirname(__file__), "golden", "metal_m1.npz")
    with np.load(path) as data:
        return data["mask"]


class TestFactorGramParity:
    """The kernel build decomposes the Gram ``F F^H`` of the TCC's
    source factor; it must give the dense ``eigh(F^H F)`` kernels, also
    when the factor has zero rows."""

    @pytest.mark.parametrize("defocus_nm", [0.0, 25.0])
    @pytest.mark.parametrize("case", sorted(GRAM_CASES))
    def test_factor_gram_matches_dense_eigh(self, case, defocus_nm, golden_mask):
        pixel_nm, shape, max_kernels = GRAM_CASES[case]
        source = build_kernel_set(pixel_nm=pixel_nm, backend="numpy").source
        tcc = build_tcc_grid(source, shape, pixel_nm, defocus_nm=defocus_nm)
        sources, n = tcc.factor.shape
        assert sources < n
        assert np.iscomplexobj(tcc.factor) == (defocus_nm != 0.0)

        eigvals, eigvecs = np.linalg.eigh(tcc.matrix)
        eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
        weights, coefficients = socs_spectra(tcc, max_kernels=max_kernels)
        padded_weights, padded_coefficients = socs_spectra(
            padded(tcc), max_kernels=max_kernels
        )
        count = len(weights)
        assert count == len(padded_weights)
        assert coefficients.shape == (count, n)
        assert np.abs(weights - eigvals[:count]).max() <= 1e-12 * eigvals[0]
        assert (
            np.abs(padded_weights - eigvals[:count]).max() <= 1e-12 * eigvals[0]
        )

        reference = (eigvecs[:, :count] * eigvals[:count]) @ (
            eigvecs[:, :count].conj().T
        )
        for w, v in ((weights, coefficients),
                     (padded_weights, padded_coefficients)):
            operator = (v.T * w) @ v.conj()
            assert np.abs(operator - reference).max() <= 1e-12

        mask = np.zeros(shape)
        mask[: golden_mask.shape[0], : golden_mask.shape[1]] = golden_mask
        image = socs_image(
            mask, tcc, eigvals[:count], eigvecs[:, :count].T
        )
        for w, v in ((weights, coefficients),
                     (padded_weights, padded_coefficients)):
            assert np.abs(socs_image(mask, tcc, w, v) - image).max() <= 1e-12

    def test_zero_eigenvalues_are_never_kept(self):
        """A factor of 12 source rows over 20 lattice points, one row
        zero: ``F F^H`` has an exact zero eigenvalue, whose eigenvector
        maps back to the zero vector.  The full-energy cut, whose
        cumulative sum falls short of 1 by round-off, still keeps only
        the 11 positive ones — and they are the whole TCC."""
        rng = np.random.default_rng(0)
        factor = rng.normal(size=(12, 20)) + 1j * rng.normal(size=(12, 20))
        factor[-1] = 0.0
        tcc = TCCResult(
            factor, np.zeros((20, 2), dtype=np.int64), (1.0, 1.0)
        )
        weights, coefficients = socs_spectra(
            tcc, max_kernels=20, energy_fraction=1.0
        )
        assert len(weights) == len(coefficients) == 11
        assert np.isfinite(coefficients).all()
        eigvals = np.linalg.eigvalsh(tcc.matrix)[::-1]
        assert np.allclose(weights, eigvals[:11], rtol=1e-12)
        operator = (coefficients.T * weights) @ coefficients.conj()
        assert np.allclose(operator, tcc.matrix, atol=1e-12)


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

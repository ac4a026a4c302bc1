"""Transmission cross coefficient (TCC) construction and SOCS decomposition.

Hopkins partially-coherent imaging writes the aerial image as

    I(x) = sum_{f1, f2} TCC(f1, f2) M(f1) conj(M(f2)) exp(i 2 pi (f1 - f2) x)

with ``TCC(f1, f2) = integral J(f) P(f + f1) conj(P(f + f2)) df`` over the
source.  Diagonalizing the (Hermitian, PSD) TCC gives the sum-of-coherent-
systems form ``I(x) = sum_k w_k |(h_k * m)(x)|^2`` — the optical kernels
every fast OPC simulator uses.

Two lattice conventions are supported:

* :func:`build_tcc_grid` — the *frequency-native* path the simulator
  uses: the lattice is exactly the DFT frequency grid of one simulation
  raster (per-axis spacing ``1 / (n_pixels * pixel_nm)``, anisotropic
  for non-square grids).  Eigenvectors of this TCC
  (:func:`socs_spectra`) are SOCS kernel spectra defined directly on
  that raster's pupil-band frequency subgrid — no spatial sampling, no
  ambit crop, hence exactly band-limited on the grid they will convolve
  (:class:`repro.litho.kernels.GridBandSpectra`).
* :func:`build_tcc` — a square lattice of spacing ``1 / period_nm``,
  kept as an independent reference for the grid build.

Either way the TCC is a Gram matrix ``F^H F`` of the ``(S, n)`` source
factor ``F[s, a] = sqrt(J_s) * P(f_s + f_a) / sqrt(sum J)``, which keeps
it exactly PSD and of rank at most ``S``, the number of active source
points.  The builds return that factor and never form the ``(n, n)``
TCC: :func:`socs_spectra` eigendecomposes the ``S x S`` Gram ``F F^H``
— the benchmark grids have ``S = 293, n = 609`` (via) and
``S = 177, n = 349`` (metal); ``S < n`` whenever the Nyquist limit does
not clip the shift lattice — and maps its eigenvectors back through
``F^H``.  At nominal focus every pupil phase is exactly 1, so the factor
is built real, with no complex ``exp``, and so is the whole
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import NUMERICAL_APERTURE, WAVELENGTH_NM
from repro.errors import LithoError
from repro.litho.pupil import pupil_function, pupil_support
from repro.litho.source import SourceSpec, source_weights


@dataclass(frozen=True)
class TCCResult:
    """Discretized TCC, as its source factor, plus the lattice metadata
    needed to invert it.

    Attributes:
        factor: ``(S, n)`` source factor ``F`` with ``TCC = F^H F``; real
            when every pupil sample is (nominal focus), else complex.
        shift_indices: ``(n, 2)`` integer lattice coordinates of each sample.
        lattice_spacing_rc: Per-axis frequency-lattice pitch (cycles/nm),
            ``(row, col)``; equal for square lattices.
    """

    factor: np.ndarray
    shift_indices: np.ndarray
    lattice_spacing_rc: tuple[float, float]

    @property
    def matrix(self) -> np.ndarray:
        """The ``(n, n)`` Hermitian TCC ``F^H F`` (a reference; the
        kernel build never forms it)."""
        return self.factor.conj().T @ self.factor

    @property
    def lattice_spacing(self) -> float:
        """Isotropic lattice pitch; only valid for square lattices."""
        row, col = self.lattice_spacing_rc
        if row != col:
            raise LithoError(
                "anisotropic TCC lattice has no single spacing; "
                "use lattice_spacing_rc"
            )
        return row

    @property
    def band_radii(self) -> tuple[int, int]:
        """Largest absolute lattice index per axis (kernel band support)."""
        return (
            int(np.abs(self.shift_indices[:, 0]).max()),
            int(np.abs(self.shift_indices[:, 1]).max()),
        )


def frequency_lattice(radius_units: int) -> np.ndarray:
    """Integer lattice points within ``radius_units`` of the origin."""
    coords = np.arange(-radius_units, radius_units + 1)
    ii, jj = np.meshgrid(coords, coords, indexing="ij")
    pts = np.stack([ii.ravel(), jj.ravel()], axis=1)
    keep = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= radius_units * radius_units
    return pts[keep]


def elliptic_lattice(
    max_row: int, max_col: int, spacing_row: float, spacing_col: float,
    cutoff: float,
) -> np.ndarray:
    """Integer lattice points whose physical frequency is within ``cutoff``.

    Generalizes :func:`frequency_lattice` to anisotropic spacings: the
    disk ``|f| <= cutoff`` becomes an ellipse in index space.
    """
    ii, jj = np.meshgrid(
        np.arange(-max_row, max_row + 1),
        np.arange(-max_col, max_col + 1),
        indexing="ij",
    )
    pts = np.stack([ii.ravel(), jj.ravel()], axis=1)
    f_sq = (pts[:, 0] * spacing_row) ** 2 + (pts[:, 1] * spacing_col) ** 2
    return pts[f_sq <= cutoff * cutoff]


def _assemble_tcc(
    source: SourceSpec,
    shift_indices: np.ndarray,
    spacing_rc: tuple[float, float],
    defocus_nm: float,
    wavelength_nm: float,
    numerical_aperture: float,
) -> TCCResult:
    """Source factor of the TCC over the given pupil-shift lattice.

    The source is discretized on the same lattice spacing (quadrature of
    the Hopkins source integral; refining it further moves intensities by
    under ~3e-3, well inside the model error of the physics class).
    """
    df_r, df_c = spacing_rc
    cutoff = numerical_aperture / wavelength_nm
    shifts = shift_indices * np.array([df_r, df_c])

    source_max_r = int(np.ceil(source.outer_sigma * cutoff / df_r))
    source_max_c = int(np.ceil(source.outer_sigma * cutoff / df_c))
    ii, jj = np.meshgrid(
        np.arange(-source_max_r, source_max_r + 1),
        np.arange(-source_max_c, source_max_c + 1),
        indexing="ij",
    )
    source_freqs = np.stack([ii.ravel() * df_r, jj.ravel() * df_c], axis=1)
    weights = source_weights(source, source_freqs, cutoff)
    active = weights > 0
    source_freqs = source_freqs[active]
    weights = weights[active]

    # F[s, a] = sqrt(J_s / sum(J)) * P(f_s + f_a); TCC = F^H F.
    sample_freqs = source_freqs[:, None, :] + shifts[None, :, :]
    flat = sample_freqs.reshape(-1, 2)
    amplitude = np.sqrt(weights / weights.sum())[:, None]
    if defocus_nm == 0:
        # Every phase is exactly 1 + 0j at nominal focus: the factor is the
        # real part of the complex product, with no S x n complex exp.
        inside = pupil_support(flat, wavelength_nm, numerical_aperture)
        factor = amplitude * inside.reshape(len(source_freqs), len(shifts))
    else:
        factor = amplitude * pupil_function(
            flat,
            defocus_nm=defocus_nm,
            wavelength_nm=wavelength_nm,
            numerical_aperture=numerical_aperture,
        ).reshape(len(source_freqs), len(shifts))
    return TCCResult(
        factor=factor, shift_indices=shift_indices,
        lattice_spacing_rc=(df_r, df_c),
    )


def build_tcc(
    source: SourceSpec,
    period_nm: float,
    defocus_nm: float = 0.0,
    wavelength_nm: float = WAVELENGTH_NM,
    numerical_aperture: float = NUMERICAL_APERTURE,
) -> TCCResult:
    """Build the TCC on a square lattice with spacing ``1 / period_nm``.

    ``period_nm`` is the spatial period of the lattice; it should
    comfortably exceed the optical ambit (~1-2 um).
    """
    if period_nm <= 0:
        raise LithoError(f"period must be positive, got {period_nm}")
    df = 1.0 / period_nm
    cutoff = numerical_aperture / wavelength_nm

    pupil_radius_units = int(np.floor(cutoff / df))
    if pupil_radius_units < 2:
        raise LithoError(
            f"frequency lattice too coarse: pupil radius is only "
            f"{pupil_radius_units} samples (period {period_nm} nm)"
        )
    shift_indices = frequency_lattice(pupil_radius_units)
    return _assemble_tcc(
        source, shift_indices, (df, df), defocus_nm,
        wavelength_nm, numerical_aperture,
    )


def build_tcc_grid(
    source: SourceSpec,
    shape: tuple[int, int],
    pixel_nm: float,
    defocus_nm: float = 0.0,
    wavelength_nm: float = WAVELENGTH_NM,
    numerical_aperture: float = NUMERICAL_APERTURE,
) -> TCCResult:
    """Build the TCC directly on one raster's DFT frequency lattice.

    The lattice spacing is ``1 / (rows * pixel_nm)`` per row and
    ``1 / (cols * pixel_nm)`` per column, so the resulting eigenvectors
    are kernel spectra sampled *exactly* at the grid's FFT bins: circular
    convolution with them on that grid is the exact Hopkins image of the
    ``shape``-periodic mask, with no spatial crop anywhere.
    """
    rows, cols = int(shape[0]), int(shape[1])
    if rows < 2 or cols < 2 or pixel_nm <= 0:
        raise LithoError(
            f"bad raster for TCC lattice: shape {shape}, pixel {pixel_nm} nm"
        )
    df_r = 1.0 / (rows * pixel_nm)
    df_c = 1.0 / (cols * pixel_nm)
    cutoff = numerical_aperture / wavelength_nm

    # The pupil band must fit under the grid Nyquist on both axes.
    max_r = min(int(np.floor(cutoff / df_r)), (rows - 1) // 2)
    max_c = min(int(np.floor(cutoff / df_c)), (cols - 1) // 2)
    if min(max_r, max_c) < 2:
        raise LithoError(
            f"frequency lattice too coarse for grid {rows}x{cols} at "
            f"{pixel_nm} nm: pupil band is only ({max_r}, {max_c}) samples "
            f"— enlarge the simulation window"
        )
    shift_indices = elliptic_lattice(max_r, max_c, df_r, df_c, cutoff)
    return _assemble_tcc(
        source, shift_indices, (df_r, df_c), defocus_nm,
        wavelength_nm, numerical_aperture,
    )


CLUSTER_RTOL = 1e-3
"""Adjacent TCC eigenvalues whose gap is at most this fraction of the
larger one form one cluster.  Source symmetry makes some eigenvalues
exactly equal, and LAPACK may return any orthonormal basis of such an
eigenspace, so a cut inside a cluster makes the image depend on the BLAS
build.  A near-degenerate pair is as fragile: round-off of order
``n eps lambda_1`` rotates its vectors by that over the gap.  The
benchmark grids' 12-kernel cuts sit at gaps of 2-5% of lambda_12, well
clear of this tolerance."""


def socs_spectra(
    tcc: TCCResult,
    max_kernels: int = 12,
    energy_fraction: float = 0.995,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a TCC into SOCS kernel *spectra*.

    The TCC ``F^H F`` has rank at most ``S``, the factor's row count, and
    its non-zero eigenpairs are those of ``F F^H``: the same eigenvalues,
    with eigenvectors ``v_k = F^H u_k / sqrt(lambda_k)``.  So the
    ``S x S`` Gram ``F F^H`` is decomposed, in real arithmetic when the
    factor is real (nominal focus), never the ``n x n`` TCC.  The TCC's
    other ``n - S`` eigenvalues are zero: they add nothing to the energy
    and end no kept cluster, so neither cut needs them.

    The kernel count is the smallest one holding ``energy_fraction`` of
    the eigenvalue sum, capped at ``max_kernels``; both cuts fall only
    on eigenvalue-cluster boundaries (:data:`CLUSTER_RTOL`).  The energy
    cut rounds up to the end of its cluster and the cap rounds down to
    the start of the cluster it would split, so the truncated image is
    invariant to the basis LAPACK picks inside any kept eigenspace.
    Zero eigenvalues image nothing and are never kept.

    Returns:
        ``(weights, coefficients)``: weights ``(K,)`` (eigenvalues,
        descending) and complex coefficients ``(K, n)`` aligned with
        ``tcc.shift_indices`` — kernel ``k``'s spectrum is
        ``coefficients[k, a]`` at lattice point ``shift_indices[a]`` and
        exactly zero elsewhere.
    """
    if not 0 < energy_fraction <= 1:
        raise LithoError(f"energy_fraction must be in (0, 1], got {energy_fraction}")
    factor = tcc.factor
    eigvals, eigvecs = np.linalg.eigh(factor @ factor.conj().T)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]

    total = eigvals.sum()
    if total <= 0:
        raise LithoError("TCC has no positive eigenvalues")
    # Kernel counts that end on a cluster boundary, ascending.
    gaps = eigvals[:-1] - eigvals[1:]
    boundaries = np.flatnonzero(gaps > CLUSTER_RTOL * eigvals[:-1])
    cuts = np.append(boundaries + 1, len(eigvals))
    cumulative = np.cumsum(eigvals) / total
    needed = min(
        int(np.searchsorted(cumulative, energy_fraction) + 1), len(eigvals)
    )
    count = int(cuts[np.searchsorted(cuts, needed)])
    if count > max_kernels:
        fitting = cuts[cuts <= max_kernels]
        if not len(fitting):
            raise LithoError(
                f"max_kernels={max_kernels} splits the leading eigenvalue "
                f"cluster of {int(cuts[0])} kernels"
            )
        count = int(fitting[-1])
    # The last positive eigenvalue always ends a cluster, and a zero one
    # of F F^H maps back to the zero vector.
    count = min(count, int(np.count_nonzero(eigvals)))
    kept = factor.conj().T @ eigvecs[:, :count]
    kept /= np.linalg.norm(kept, axis=0)
    return eigvals[:count], np.ascontiguousarray(kept.T, dtype=np.complex128)

"""Pupil-band mask spectra straight from rectilinear polygons.

The antialiased raster of a rectilinear mask is a sum of per-slab
pixel-coverage outer products (see :func:`repro.geometry.raster.rasterize`),
so every DFT coefficient of the raster factorizes per slab into a
product of two one-dimensional coverage transforms:

    F[kr, kc] = sum_slabs  (sum_r wy[r] e^{-2 pi i kr r / H})
                         * (sum_c wx[c] e^{-2 pi i kc c / W})

Each one-dimensional sum has a closed form: the two fringe pixels plus a
geometric series over the fully covered interior.  The pupil band holds
only ``(2 b0 + 1) x (b1 + 1)`` Hermitian-half coefficients, so a mask's
band comes from its slabs by one small GEMM, with no ``H x W`` image and
no full-grid FFT.  This is the band source of the imaging front end for
polygon input (:meth:`~repro.litho.simulator.LithographySimulator.simulate_batch`);
rasterized input keeps ``rfft2`` followed by
:func:`~repro.litho.kernels.gather_band_rfft`.

Both sources are the same linear map summed in a different order, so
they agree to float round-off (~1e-13 relative) under one precondition,
the one ``rasterize`` states: each mask's polygons are mutually disjoint,
so no pixel's coverage sums past 1 and ``rasterize``'s final clip to
``[0, 1]`` changes nothing.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import LithoError
from repro.geometry.polygon import Polygon
from repro.geometry.raster import Grid, slab_decomposition
from repro.litho.kernels import GridBandSpectra


def interval_coverage_dft(
    lo: np.ndarray, hi: np.ndarray, n_pixels: int, freqs: np.ndarray
) -> np.ndarray:
    """Closed-form ``sum_p w_p z^p`` for the pixel coverage of ``[lo, hi]``.

    ``w_p = |[p, p + 1] ∩ [lo, hi]|`` (pixel units) and ``z = exp(-2 pi
    i f / n_pixels)``: the 1-D DFT of the antialiased coverage of one
    interval, at frequencies ``freqs``, for a batch of intervals.  Every
    power of ``z`` is looked up in the n roots of unity with its integer
    exponent reduced mod n, so it is exact to one rounding.  The zero
    frequency takes the exact branch (the interior count), tested as
    ``f == 0`` after that reduction.

    Args:
        lo, hi: ``(S,)`` interval bounds in pixel units, already clipped
            to ``[0, n_pixels]``, with ``lo < hi``.
        freqs: ``(F,)`` integer DFT frequencies (negative values fine).

    Returns:
        ``(S, F)`` complex transform values.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.int64) % n_pixels
    roots = np.exp((-2j * np.pi / n_pixels) * np.arange(n_pixels))
    first = np.floor(lo).astype(np.int64)
    last = np.ceil(hi).astype(np.int64) - 1
    z_first = roots[np.outer(first, freqs) % n_pixels]
    z_last = roots[np.outer(last, freqs) % n_pixels]
    single = first == last
    head = np.where(single, hi - lo, first + 1 - lo)
    out = head[:, None] * z_first
    multi = ~single
    if np.any(multi):
        out[multi] += (hi - last)[multi, None] * z_last[multi]
    interior = last - first - 1
    inner = interior > 0
    if np.any(inner):
        dc = freqs == 0
        denom = 1.0 - roots[freqs]
        denom[dc] = 1.0
        # sum_{p = first + 1}^{last - 1} z^p  (geometric series)
        z_next = roots[np.outer(first[inner] + 1, freqs) % n_pixels]
        geo = (z_next - z_last[inner]) / denom
        geo[:, dc] = interior[inner, None].astype(np.float64)
        out[inner] += geo
    return out


def collect_slabs(
    polygon_sets: Sequence[Iterable[Polygon]], grid: Grid
) -> tuple[np.ndarray, np.ndarray]:
    """Window-clipped slabs of every mask, in pixel units.

    Returns ``(bounds, counts)``: ``bounds`` is ``(S, 4)`` rows of
    ``(x_lo, x_hi, y_lo, y_hi)`` over all masks in order, and ``counts``
    the number of slabs of each mask.  Slabs are clipped to the grid
    window exactly as ``rasterize`` clips them; slabs outside it vanish.
    """
    x_max = grid.cols * grid.pixel_nm
    y_max = grid.rows * grid.pixel_nm
    rows: list[tuple[float, float, float, float]] = []
    counts = np.zeros(len(polygon_sets), dtype=np.int64)
    for index, polygons in enumerate(polygon_sets):
        start = len(rows)
        for polygon in polygons:
            for x_lo, x_hi, y_lo, y_hi in slab_decomposition(polygon):
                rows.append((
                    max(x_lo - grid.x0, 0.0), min(x_hi - grid.x0, x_max),
                    max(y_lo - grid.y0, 0.0), min(y_hi - grid.y0, y_max),
                ))
        counts[index] = len(rows) - start
    bounds = np.array(rows, dtype=np.float64).reshape(-1, 4)
    kept = (bounds[:, 0] < bounds[:, 1]) & (bounds[:, 2] < bounds[:, 3])
    if not kept.all():
        owner = np.repeat(np.arange(len(polygon_sets)), counts)
        counts = np.bincount(owner[kept], minlength=len(polygon_sets))
        bounds = bounds[kept]
    return bounds / grid.pixel_nm, counts


def polygon_band_coeffs(
    polygon_sets: Sequence[Iterable[Polygon]],
    grid: Grid,
    band: GridBandSpectra,
) -> np.ndarray:
    """Hermitian-half pupil-band DFT coefficients of each mask's raster.

    ``polygon_sets`` holds one collection of rectilinear polygons per
    mask, mutually disjoint within a mask.  Returns ``(B, 2 b0 + 1,
    b1 + 1)`` complex coefficients: rows at the band's row frequencies
    (``band.rows_src`` order), columns ``0..b1``, equal to ``rasterize``
    -> ``rfft2`` at those frequencies to float round-off.  Each mask's
    block is one ``(2 b0 + 1, S) @ (S, b1 + 1)`` GEMM over its slabs.
    """
    bounds, counts = collect_slabs(polygon_sets, grid)
    b1 = band.band[1]
    coeffs = np.zeros(
        (len(polygon_sets), len(band.rows_src), b1 + 1), dtype=np.complex128
    )
    if not len(bounds):
        return coeffs
    x_lo, x_hi, y_lo, y_hi = bounds.T
    row_dft = interval_coverage_dft(y_lo, y_hi, grid.rows, band.rows_src)
    col_dft = interval_coverage_dft(x_lo, x_hi, grid.cols, np.arange(b1 + 1))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for index, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        if lo < hi:
            coeffs[index] = row_dft[lo:hi].T @ col_dft[lo:hi]
    return coeffs


def polygon_band_subgrid(
    polygon_sets: Sequence[Iterable[Polygon]],
    grid: Grid,
    band: GridBandSpectra,
) -> np.ndarray:
    """``(B, m0, m1)`` pupil-band mask spectra on the subgrid, from polygons.

    The polygon-input counterpart of
    :func:`~repro.litho.kernels.gather_band_rfft`, laid out identically:
    the Hermitian half from :func:`polygon_band_coeffs` fills columns
    ``0..b1``, and the negative columns are its conjugates at the
    negated rows (``F[r, -c] = conj(F[-r, c])`` for a real mask).
    Host numpy.
    """
    if grid.shape != band.shape:
        raise LithoError(
            f"grid shape {grid.shape} does not match band shape {band.shape}"
        )
    half = polygon_band_coeffs(polygon_sets, grid, band)
    b1 = band.band[1]
    m0, m1 = band.subgrid
    n_rows = len(band.rows_src)
    gathered = np.empty((len(half), n_rows, 2 * b1 + 1), dtype=np.complex128)
    gathered[..., : b1 + 1] = half
    # rows_src lists frequencies 0..b0, then -b0..-1: position p holds
    # the negation of position -p (mod the row count).
    negated = (-np.arange(n_rows)) % n_rows
    gathered[..., b1 + 1 :] = half[:, negated, b1:0:-1].conj()
    sub = np.zeros((len(half), m0, m1), dtype=np.complex128)
    sub[:, band.rows_dst[:, None], band.cols_dst[None, :]] = gathered
    return sub

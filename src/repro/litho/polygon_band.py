"""Pupil-band mask spectra straight from rectilinear polygons.

A mask arrives as polygons or as their slabs
(:class:`~repro.geometry.raster.Slabs`, the disjoint rectangles of one
array pass over the vertex loops; the OPC environment hands over the
slabs its mask states cache, see :mod:`repro.geometry.mask_edit`).  The
antialiased raster of a rectilinear mask is a sum of per-slab
pixel-coverage outer products (see :func:`repro.geometry.raster.rasterize`),
so every DFT coefficient of the raster factorizes per slab into a
product of two one-dimensional coverage transforms:

    F[kr, kc] = sum_slabs  (sum_r wy[r] e^{-2 pi i kr r / H})
                         * (sum_c wx[c] e^{-2 pi i kc c / W})

Each one-dimensional sum has a closed form: the two fringe pixels plus a
geometric series over the fully covered interior, computed for every
slab of a batch at once from a table of the powers of the axis's roots
of unity.  The pupil band holds only ``(2 b0 + 1) x (b1 + 1)``
Hermitian-half coefficients, so a mask's band comes from its slabs by
one small GEMM, with no ``H x W`` image and no full-grid FFT.  This is
the band source of the imaging front end for polygon input
(:meth:`~repro.litho.simulator.LithographySimulator.simulate_batch`);
rasterized input keeps ``rfft2`` followed by
:func:`~repro.litho.kernels.gather_band_rfft`.

Both sources are the same linear map summed in a different order, so
they agree to float round-off (~1e-13 relative) under one precondition,
the one ``rasterize`` states: each mask's polygons are mutually disjoint,
so no pixel's coverage sums past 1 and ``rasterize``'s final clip to
``[0, 1]`` changes nothing.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from repro.errors import LithoError
from repro.geometry.polygon import Polygon
from repro.geometry.raster import Grid, Slabs
from repro.litho.kernels import GridBandSpectra


@functools.lru_cache(maxsize=32)
def _power_table(n_pixels: int, freqs: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``table[p, j] = z_j^p`` for ``p = 0..n`` with ``z_j = exp(-2 pi i
    f_j / n)``, each looked up in the n roots of unity at exponent
    ``p f_j mod n``; and the geometric-series denominators ``1 - z_j``
    (1 at the zero frequency).  ``freqs`` are the bytes of the reduced
    int64 frequencies.  Both read-only."""
    reduced = np.frombuffer(freqs, dtype=np.int64)
    roots = np.exp((-2j * np.pi / n_pixels) * np.arange(n_pixels))
    table = roots[np.outer(np.arange(n_pixels + 1), reduced) % n_pixels]
    denom = np.where(reduced == 0, 1.0, 1.0 - roots[reduced])
    table.setflags(write=False)
    denom.setflags(write=False)
    return table, denom


def interval_coverage_dft(
    lo: np.ndarray, hi: np.ndarray, n_pixels: int, freqs: np.ndarray
) -> np.ndarray:
    """Closed-form ``sum_p w_p z^p`` for the pixel coverage of ``[lo, hi]``.

    ``w_p = |[p, p + 1] ∩ [lo, hi]|`` (pixel units) and ``z = exp(-2 pi
    i f / n_pixels)``: the 1-D DFT of the antialiased coverage of one
    interval, at frequencies ``freqs``, for a batch of intervals.  It is
    the first fringe pixel's term, plus the last fringe pixel's when the
    interval spans more than one pixel, plus the geometric series over
    the fully covered interior.  Every power of ``z`` is looked up in the
    n roots of unity with its integer exponent reduced mod n, so it is
    exact to one rounding; the powers at every pixel index are tabulated
    once per ``(n_pixels, freqs)``, so a batch reads whole rows of them.
    The zero frequency takes the exact branch (the interior count),
    tested as ``f == 0`` after that reduction.

    Args:
        lo, hi: ``(S,)`` interval bounds in pixel units, already clipped
            to ``[0, n_pixels]``, with ``lo < hi``.
        freqs: ``(F,)`` integer DFT frequencies (negative values fine).

    Returns:
        ``(S, F)`` complex transform values.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    reduced = np.asarray(freqs, dtype=np.int64) % n_pixels
    table, denom = _power_table(n_pixels, reduced.tobytes())
    first = np.floor(lo).astype(np.int64)
    last = np.ceil(hi).astype(np.int64) - 1
    z_last = table[last]
    single = first == last
    out = np.where(single, hi - lo, first + 1 - lo)[:, None] * table[first]
    out += np.where(single, 0.0, hi - last)[:, None] * z_last
    # sum_{p = first + 1}^{last - 1} z^p  (geometric series), where
    # there is an interior
    interior = last - first - 1
    geo = table[first + 1]
    geo -= z_last
    geo /= denom
    geo[:, reduced == 0] = interior[:, None]
    geo[interior <= 0] = 0.0
    out += geo
    return out


def collect_slabs(
    masks: Sequence["Slabs | Iterable[Polygon]"], grid: Grid
) -> tuple[np.ndarray, np.ndarray]:
    """Window-clipped slabs of every mask, in pixel units.

    ``masks`` holds one :class:`~repro.geometry.raster.Slabs` or one
    collection of polygons per mask.  Returns ``(bounds, counts)``:
    ``bounds`` is ``(S, 4)`` rows of ``(x_lo, x_hi, y_lo, y_hi)`` over
    all masks in order, and ``counts`` the number of slabs of each mask.
    Slabs are clipped to the grid window exactly as ``rasterize`` clips
    them; slabs outside it vanish.
    """
    slab_sets = [
        mask if isinstance(mask, Slabs) else Slabs.of(mask) for mask in masks
    ]
    counts = np.array([len(slabs) for slabs in slab_sets], dtype=np.int64)
    bounds = np.concatenate(
        [slabs.bounds for slabs in slab_sets] or [np.zeros((0, 4))]
    ) - (grid.x0, grid.x0, grid.y0, grid.y0)
    np.maximum(bounds[:, 0::2], 0.0, out=bounds[:, 0::2])
    np.minimum(
        bounds[:, 1::2],
        (grid.cols * grid.pixel_nm, grid.rows * grid.pixel_nm),
        out=bounds[:, 1::2],
    )
    kept = (bounds[:, 0] < bounds[:, 1]) & (bounds[:, 2] < bounds[:, 3])
    if not kept.all():
        owner = np.repeat(np.arange(len(slab_sets)), counts)
        counts = np.bincount(owner[kept], minlength=len(slab_sets))
        bounds = bounds[kept]
    return bounds / grid.pixel_nm, counts


def polygon_band_coeffs(
    masks: Sequence["Slabs | Iterable[Polygon]"],
    grid: Grid,
    band: GridBandSpectra,
) -> np.ndarray:
    """Hermitian-half pupil-band DFT coefficients of each mask's raster.

    ``masks`` holds, per mask, a collection of mutually disjoint
    rectilinear polygons or their :class:`~repro.geometry.raster.Slabs`.
    Returns ``(B, 2 b0 + 1, b1 + 1)`` complex coefficients: rows at the
    band's row frequencies (``band.rows_src`` order), columns ``0..b1``,
    equal to ``rasterize`` -> ``rfft2`` at those frequencies to float
    round-off.  Each mask's block is one ``(2 b0 + 1, S) @ (S, b1 + 1)``
    GEMM over its slabs.
    """
    bounds, counts = collect_slabs(masks, grid)
    b1 = band.band[1]
    coeffs = np.zeros(
        (len(counts), len(band.rows_src), b1 + 1), dtype=np.complex128
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
    masks: Sequence["Slabs | Iterable[Polygon]"],
    grid: Grid,
    band: GridBandSpectra,
) -> np.ndarray:
    """``(B, m0, m1)`` pupil-band mask spectra on the subgrid, from
    polygons or their slabs.

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
    half = polygon_band_coeffs(masks, grid, band)
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

"""Optical kernel sets: frequency-native, band-limited SOCS spectra.

A :class:`OpticalKernelSet` owns the optics of one process condition
(focus setting).  Its only kernel representation is *per-grid band
spectra* (:class:`GridBandSpectra`): for every raster shape it simulates
on, the TCC's source factor is built directly on that grid's DFT
frequency lattice (:func:`repro.litho.tcc.build_tcc_grid`) and its small
Gram eigendecomposed (:func:`repro.litho.tcc.socs_spectra`) into SOCS
kernel spectra that are exactly zero outside the pupil band.  Because no
spatial crop ever happens, the pupil-band subgrid engine is *exact*.
Finished spectra persist across processes through
:class:`repro.litho.store.KernelSpectraStore`.

One imaging pipeline serves every batched entry point
(``LithographySimulator.simulate_batch`` / ``simulate_epe_batch``):

* band source — the mask stack's pupil band on the subgrid, from one of
  two sources, one per input kind: :func:`raster_band` of rasterized
  masks (the row ``rfft``, the column ``fft`` of the band's columns, the
  Hermitian gather :func:`gather_band_rfft`), or, for polygon input, the
  closed-form band of the polygons' slabs
  (:func:`repro.litho.polygon_band.polygon_band_subgrid`), with no raster
  and no full-grid FFT;
* front end, :meth:`OpticalKernelSet.image_band` — every kernel's
  coherent field in one ``(B, K, m0, m1)`` array on an alias-free
  subgrid (``m >= 4b + 1`` so the *squared* field, band radius ``2b``,
  folds nowhere), weighted magnitudes summed in kernel order
  (:meth:`~OpticalKernelSet.subgrid_intensity` is the raster-input
  entry: :func:`raster_band`, then this);
* sparse back end, :class:`PixelLift` — the subgrid intensity lifted to
  chosen full-grid pixels by a separable lattice DFT (EPE metrology
  needs nothing else), planned once per pixel set;
* dense back end, :meth:`OpticalKernelSet.resample_intensity` — an
  exact zero-padded resample in real arithmetic (subgrid ``rfft2``,
  half spectrum, ``irfft2``).

Band-only transforms.  Every kernel spectrum is exactly zero outside
the pupil band, so most 1-D passes of a full 2-D transform would either
transform an all-zero line or produce a line nothing reads.  The three
transforms above keep numpy's axis order (``ifft2`` and ``rfft2`` run
the last axis first, ``irfft2`` runs it last) and skip exactly those
passes: the image's row pass runs on the ``2 b0 + 1`` band rows, the
resample's column pass on the ``2 b1 + 1`` band columns, the raster
band's column pass on columns ``0..b1``.  A 1-D transform of a line
does not depend on the other lines, and a skipped line's output is
zero (or never read) either way, so every value is bit for bit that of
the full 2-D transform; ``tests/test_band_transforms.py`` holds all
three to it as ``.view(int64)``.

Both back ends agree with the reference path to FFT round-off (<= 1e-9
absolute intensity).  When the band covers the grid the subgrid *is*
the grid: the same gather and convolution run at full size, nothing is
resampled, and the result is bit-for-bit the reference path's.

:meth:`OpticalKernelSet.convolve_intensity` is the single-mask spatial
reference: full-grid per-kernel inverse FFTs over the band spectra
scattered onto the grid (:meth:`~OpticalKernelSet.kernel_spectra`).
Everything else is tested against it.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.constants import NUMERICAL_APERTURE, WAVELENGTH_NM
from repro.errors import LithoError
from repro.litho.source import SourceSpec
from repro.litho.tcc import build_tcc_grid, socs_spectra


def _is_5_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= ``n`` (fast FFT length), by an
    upward scan.

    Subgrid sizes are part of the numerical contract, so the answer
    depends on ``n`` alone.  The kernel build calls it once per band
    axis, on lengths of a few dozen.
    """
    if n < 1:
        raise LithoError(f"FFT length must be positive, got {n}")
    while not _is_5_smooth(n):
        n += 1
    return n


def _band_indices(n: int, radius: int) -> np.ndarray:
    """Indices of the centred frequency band of ``radius`` on an n-grid."""
    return np.r_[0 : radius + 1, n - radius : n]


def _validate_pixel_set(
    shape: tuple[int, int], rows, cols
) -> tuple[np.ndarray, np.ndarray]:
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    if rows.ndim != 1 or rows.shape != cols.shape:
        raise LithoError(
            f"pixel rows {rows.shape} and cols {cols.shape} must be "
            "matching 1-D index arrays"
        )
    if len(rows) and (
        rows.min() < 0 or rows.max() >= shape[0]
        or cols.min() < 0 or cols.max() >= shape[1]
    ):
        raise LithoError(f"pixel indices fall outside the {shape} grid")
    return rows, cols


@dataclass(frozen=True)
class GridBandSpectra:
    """Band-limited SOCS spectra bound to one grid shape (source of truth).

    Attributes:
        shape: Full grid shape ``(H, W)`` the spectra convolve on.
        weights: ``(K,)`` kernel weights, rescaled so an open-frame mask
            images to intensity exactly 1.0 on this grid.
        band: Per-axis frequency index radii ``(b0, b1)`` of the pupil
            band; every kernel spectrum is exactly zero outside it.
        subgrid: Alias-free intensity subgrid ``(m0, m1)``
            (5-smooth, ``m >= 4b + 1``); equals ``shape`` when the band
            covers the grid.
        compact: Whether the subgrid is strictly smaller than the grid
            (i.e. the band engine actually saves work).
        sub_spectra: ``(K, m0, m1)`` kernel spectra scattered onto the
            subgrid, prescaled by ``(m0 * m1) / (H * W)`` so a subgrid
            inverse FFT of ``gathered_mask_fft * sub_spectra[k]`` yields
            the coherent field samples directly.
    """

    shape: tuple[int, int]
    weights: np.ndarray
    band: tuple[int, int]
    subgrid: tuple[int, int]
    compact: bool
    sub_spectra: np.ndarray
    rows_src: np.ndarray
    cols_src: np.ndarray
    rows_dst: np.ndarray
    cols_dst: np.ndarray
    up_rows_src: np.ndarray
    up_rows_dst: np.ndarray

    @classmethod
    def assemble(
        cls,
        shape: tuple[int, int],
        weights: np.ndarray,
        band: tuple[int, int],
        subgrid: tuple[int, int],
        compact: bool,
        sub_spectra: np.ndarray,
    ) -> "GridBandSpectra":
        """Band spectra with their index vectors, which are pure
        functions of ``(shape, band, subgrid)``: band rows/columns on
        the grid (``*_src``) and on the subgrid (``*_dst``), and the
        intensity band's rows (radius ``2 b0``) on the subgrid
        (``up_rows_src``) and on the grid (``up_rows_dst``)."""
        rows, cols = shape
        b0, b1 = band
        m0, m1 = subgrid
        return cls(
            shape=shape,
            weights=weights,
            band=band,
            subgrid=subgrid,
            compact=compact,
            sub_spectra=sub_spectra,
            rows_src=_band_indices(rows, b0),
            cols_src=_band_indices(cols, b1),
            rows_dst=_band_indices(m0, b0),
            cols_dst=_band_indices(m1, b1),
            up_rows_src=_band_indices(m0, 2 * b0),
            up_rows_dst=_band_indices(rows, 2 * b0),
        )

    @property
    def count(self) -> int:
        return len(self.weights)


def gather_band_rfft(mask_rffts: np.ndarray, band: GridBandSpectra) -> np.ndarray:
    """Pupil-band gather from half-width spectra onto the subgrid.

    ``mask_rffts`` holds ``(B, H, C)`` spectra of a real mask stack, ``C
    >= b1 + 1``: the ``rfft2`` output, or just its columns ``0..b1``
    (what :func:`raster_band` transforms), which are all this reads.  A
    real mask's spectrum is Hermitian, ``F[r, c] = conj(F[(-r) % H,
    (-c) % W])``, so the negative-column half of the pupil band is
    recovered from the stored positive columns with flipped rows.
    Values match the full-spectrum gather to FFT round-off (the rfft
    sums in a different order — not bit-for-bit).
    """
    rows, _ = band.shape
    b1 = band.band[1]
    m0, m1 = band.subgrid
    rows_src = band.rows_src
    gathered = np.empty(
        (mask_rffts.shape[0], len(rows_src), len(band.cols_src)),
        np.complex128,
    )
    gathered[..., : b1 + 1] = mask_rffts[
        :, rows_src[:, None], np.arange(b1 + 1)[None, :]
    ]
    flipped = (rows - rows_src) % rows
    gathered[..., b1 + 1 :] = mask_rffts[
        :, flipped[:, None], np.arange(b1, 0, -1)[None, :]
    ].conj()
    sub = np.zeros((mask_rffts.shape[0], m0, m1), np.complex128)
    sub[:, band.rows_dst[:, None], band.cols_dst[None, :]] = gathered
    return sub


def raster_band(masks: np.ndarray, band: GridBandSpectra) -> np.ndarray:
    """``(B, m0, m1)`` pupil-band spectra of a ``(B, H, W)`` raster stack.

    The band source of rasterized input.  ``rfft2`` runs its row
    ``rfft`` first and then a column ``fft`` over all ``W // 2 + 1``
    columns; :func:`gather_band_rfft` reads only columns ``0..b1``, so
    the column pass runs on those alone, in place.  Every 1-D transform
    that runs is the one ``rfft2`` runs on the same line, so the band is
    bit for bit the gather of the full ``rfft2``.
    """
    spectra = np.fft.rfft(masks, axis=-1)
    columns = spectra[..., : band.band[1] + 1]
    np.fft.fft(columns, axis=-2, out=columns)
    return gather_band_rfft(columns, band)


def _lattice(indices: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of ``indices`` (all in ``[0, n)``) and the
    position of every entry among them."""
    present = np.zeros(n, dtype=bool)
    present[indices] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[indices]


def _phases(n: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``exp(2 pi i l r / n)`` for every pair of ``left`` x ``right``.

    The integer products are reduced mod ``n`` and looked up in the n
    roots of unity, so every phase is exact to one rounding.
    """
    roots = np.exp((2j * np.pi / n) * np.arange(n))
    return roots[np.outer(left, right) % n]


class PixelLift:
    """The lift of one pixel set from band-limited subgrid intensities.

    Evaluating the zero-padded resample of ``(B, m0, m1)`` subgrid
    intensities at S full-grid pixels is the direct inverse DFT of their
    intensity-band spectra.  That DFT is separable, so it is evaluated
    on the small lattice of the pixel set's distinct rows x distinct
    columns — ``P_rows @ spec_band @ P_cols``, two small GEMMs — and the
    S values are gathered from the lattice.  The intensity is real, so
    only the Hermitian half of the column band is contracted (the
    non-DC columns count twice).

    Construction plans everything that depends on the pixel set alone:
    the lattice, each pixel's place in it, and both phase matrices.  A
    caller that lifts the same pixels on every call (an OPC
    environment's stencil plans) builds one ``PixelLift`` and keeps it;
    :func:`band_values_at_pixels` plans per call.  A non-compact band's
    subgrid is the grid, so its pixels are read off directly.
    """

    __slots__ = (
        "band", "rows", "cols", "row_idx", "col_idx",
        "phase_rows", "phase_cols",
    )

    def __init__(self, band: GridBandSpectra, rows, cols) -> None:
        self.band = band
        self.rows, self.cols = _validate_pixel_set(band.shape, rows, cols)
        if not band.compact:
            return
        height, width = band.shape
        m0, m1 = band.subgrid
        half_cols = 2 * band.band[1] + 1
        lattice_rows, self.row_idx = _lattice(self.rows, height)
        lattice_cols, self.col_idx = _lattice(self.cols, width)
        # upscale / (H W) == 1 / (m0 m1): the resample gain times the
        # inverse-transform normalization.
        self.phase_rows = _phases(height, lattice_rows, band.up_rows_dst) / (
            m0 * m1
        )
        phase_cols = _phases(width, np.arange(half_cols), lattice_cols)
        phase_cols[1:] *= 2.0
        # Only the real part of the column contraction is needed: one
        # real GEMM of [Re, Im] against [Re P_cols; -Im P_cols].
        self.phase_cols = np.concatenate([phase_cols.real, -phase_cols.imag])

    def __call__(self, intensity_sub: np.ndarray) -> np.ndarray:
        """``(B, S)`` values of ``(B, m0, m1)`` subgrid intensities."""
        band = self.band
        if not band.compact:
            return intensity_sub[:, self.rows, self.cols]
        half_cols = 2 * band.band[1] + 1
        spectrum = np.fft.rfft2(intensity_sub, axes=(-2, -1))
        spec_band = spectrum[:, band.up_rows_src, :half_cols]
        partial = self.phase_rows @ spec_band
        lattice = np.concatenate([partial.real, partial.imag], axis=-1) @ (
            self.phase_cols
        )
        return lattice[:, self.row_idx, self.col_idx]


def band_values_at_pixels(
    intensity_sub: np.ndarray,
    band: GridBandSpectra,
    rows: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """Full-grid pixel values of band-limited subgrid intensities.

    One :class:`PixelLift`, planned for this call and applied: two
    small GEMMs on the lattice of the pixel set's distinct rows x
    columns, then a gather.  The phases cost ``(R_u + C_u) F`` per call
    rather than ``F S``, so a pixel set seen once (the verifier's) has
    nothing worth caching.  Returns ``(B, S)`` values.
    """
    return PixelLift(band, rows, cols)(intensity_sub)


@dataclass
class OpticalKernelSet:
    """SOCS kernels for one focus condition, as per-grid band spectra.

    Band spectra are constructed lazily per grid shape (see
    :meth:`band_spectra`) from the optics below; nothing spatial is
    stored.

    Attributes:
        pixel_nm: Raster pitch the spectra are built for.
        defocus_nm: Focus condition this set represents.
        source: Illumination source.
        wavelength_nm / numerical_aperture: Projection optics.
        max_kernels / energy_fraction: SOCS truncation knobs.
        fft_cache_capacity: Max distinct grid shapes kept resident in
            each bounded LRU (band spectra, full-grid transfer stacks).
        spectra_store: Optional disk-persistent store
            (:class:`repro.litho.store.KernelSpectraStore`) consulted on
            band-spectra misses before building, and written after every
            build — a warm store turns the ~10-70 ms per-shape kernel
            build into one ``.npz`` read on fresh processes.  The build is
            FFT-free, so stored entries are bit-for-bit equal to an
            in-process build.
    """

    pixel_nm: float
    defocus_nm: float
    source: SourceSpec
    wavelength_nm: float = WAVELENGTH_NM
    numerical_aperture: float = NUMERICAL_APERTURE
    max_kernels: int = 12
    energy_fraction: float = 0.995
    fft_cache_capacity: int = 6
    spectra_store: object | None = None
    _band_cache: "OrderedDict[tuple[int, int], GridBandSpectra]" = field(
        default_factory=OrderedDict, repr=False
    )
    _fft_cache: "OrderedDict[tuple[int, int], np.ndarray]" = field(
        default_factory=OrderedDict, repr=False
    )
    _fingerprint: str | None = field(default=None, repr=False)
    _cache_lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False
    )
    """Guards the two LRU caches: callers may share one simulator (and so
    one kernel set) across threads, and an unguarded ``move_to_end`` can
    race another thread's eviction."""

    def __post_init__(self) -> None:
        if self.fft_cache_capacity < 1:
            raise LithoError(
                f"fft_cache_capacity must be >= 1, got {self.fft_cache_capacity}"
            )

    # -- per-grid band spectra -------------------------------------------------
    def band_spectra(self, shape: tuple[int, int]) -> GridBandSpectra:
        """Band-limited SOCS spectra for one grid shape (built once, LRU)."""
        key = (int(shape[0]), int(shape[1]))
        with self._cache_lock:
            cached = self._band_cache.get(key)
            if cached is not None:
                self._band_cache.move_to_end(key)
                return cached
            built = None
            store = self.spectra_store
            if store is not None:
                built = store.load(self._optics_fingerprint(), key)
            if built is None:
                built = self._build_band_spectra(key)
                if store is not None:
                    try:
                        store.save(self._optics_fingerprint(), built)
                    except OSError as exc:
                        # Persistence is a cache, not a dependency: an
                        # unwritable store directory must never fail a
                        # simulation whose spectra were just built.
                        warnings.warn(
                            f"kernel-spectra store write failed "
                            f"({store.root}): {exc}",
                            RuntimeWarning,
                            stacklevel=2,
                        )
            self._band_cache[key] = built
            while len(self._band_cache) > self.fft_cache_capacity:
                self._band_cache.popitem(last=False)
            return built

    def _optics_fingerprint(self) -> str:
        """Cached store key covering every input of the spectra build."""
        if self._fingerprint is None:
            from repro.litho.store import optics_fingerprint

            self._fingerprint = optics_fingerprint(self)
        return self._fingerprint

    def _build_band_spectra(self, shape: tuple[int, int]) -> GridBandSpectra:
        rows, cols = shape
        tcc = build_tcc_grid(
            self.source,
            shape,
            self.pixel_nm,
            defocus_nm=self.defocus_nm,
            wavelength_nm=self.wavelength_nm,
            numerical_aperture=self.numerical_aperture,
        )
        weights, coefficients = socs_spectra(
            tcc, max_kernels=self.max_kernels,
            energy_fraction=self.energy_fraction,
        )
        # Open-frame normalization: a clear mask has spectrum H*W at DC
        # only, so its intensity is sum_k w_k |coeff_k(0, 0)|^2.
        origin = np.nonzero(
            (tcc.shift_indices[:, 0] == 0) & (tcc.shift_indices[:, 1] == 0)
        )[0][0]
        open_frame = float(
            np.sum(weights * np.abs(coefficients[:, origin]) ** 2)
        )
        if open_frame <= 0:
            raise LithoError("kernel set images an open frame to zero intensity")
        weights = weights / open_frame

        b0, b1 = tcc.band_radii
        m0 = next_fast_len(4 * b0 + 1)
        m1 = next_fast_len(4 * b1 + 1)
        compact = m0 < rows and m1 < cols
        if not compact:
            m0, m1 = rows, cols
        scale = (m0 * m1) / (rows * cols)
        sub_spectra = np.zeros(
            (len(weights), m0, m1), dtype=np.complex128
        )
        sub_rows = tcc.shift_indices[:, 0] % m0
        sub_cols = tcc.shift_indices[:, 1] % m1
        sub_spectra[:, sub_rows, sub_cols] = coefficients * scale
        return GridBandSpectra.assemble(
            shape, weights, (b0, b1), (m0, m1), compact, sub_spectra
        )

    # -- full-grid transfer functions ---------------------------------------
    def kernel_spectra(self, shape: tuple[int, int]) -> np.ndarray:
        """Cached ``(K, H, W)`` full-grid kernel spectra (read-only).

        The band coefficients scattered onto the full grid: exactly zero
        outside the pupil band (no transform is involved).
        """
        key = (int(shape[0]), int(shape[1]))
        self._validate_grid(key)
        with self._cache_lock:
            cached = self._fft_cache.get(key)
            if cached is not None:
                self._fft_cache.move_to_end(key)
                return cached
            band = self.band_spectra(key)
            m0, m1 = band.subgrid
            scale = (key[0] * key[1]) / (m0 * m1)
            stack = np.zeros((band.count, *key), dtype=np.complex128)
            stack[
                :, band.rows_src[:, None], band.cols_src[None, :]
            ] = band.sub_spectra[
                :, band.rows_dst[:, None], band.cols_dst[None, :]
            ] * scale
            self._fft_cache[key] = stack
            while len(self._fft_cache) > self.fft_cache_capacity:
                self._fft_cache.popitem(last=False)
            return stack

    # -- validation ----------------------------------------------------------
    def _validate_grid(self, shape: tuple[int, int]) -> None:
        if len(shape) != 2:
            raise LithoError(f"grid shape must be 2-D, got {shape}")
        # Raises "frequency lattice too coarse" for unusably small grids.
        self.band_spectra(shape)

    def validate_mask_batch(self, masks) -> np.ndarray:
        """Check and coerce a ``(B, H, W)`` stack of rasterized masks.

        Returns the stack as float64 (no copy for float64 input).
        """
        stack = np.asarray(masks, dtype=np.float64)
        if stack.ndim != 3:
            raise LithoError(
                f"mask batch must be 3-D (B, H, W), got shape "
                f"{tuple(stack.shape)}"
            )
        if stack.shape[0] == 0:
            raise LithoError("mask batch is empty")
        self._validate_grid(tuple(stack.shape[1:]))
        return stack

    # -- convolution ---------------------------------------------------------
    def convolve_intensity(self, mask: np.ndarray) -> np.ndarray:
        """Aerial intensity ``sum_k w_k |h_k * mask|^2`` (circular conv).

        This is the retained *spatial reference path*: one full-grid
        inverse FFT per kernel over the scattered spectra.  ``mask`` is a
        2-D real array (binary or graytone); its full spectrum is the
        Hermitian extension of ``rfft2``, so inside the pupil band it
        holds the very coefficients :func:`gather_band_rfft` takes.
        """
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise LithoError(f"mask must be 2-D, got shape {mask.shape}")
        self._validate_grid(mask.shape)
        kernel_ffts = self.kernel_spectra(mask.shape)
        weights = self.band_spectra(mask.shape).weights
        rows, cols = mask.shape
        half = np.fft.rfft2(mask.astype(np.float64), axes=(-2, -1))
        mask_fft = np.empty(mask.shape, dtype=np.complex128)
        mask_fft[:, : half.shape[1]] = half
        tail = np.arange(half.shape[1], cols)
        mask_fft[:, tail] = half[(-np.arange(rows)) % rows][:, cols - tail].conj()
        intensity = np.zeros(mask.shape, dtype=np.float64)
        for weight, kernel_fft in zip(weights, kernel_ffts):
            field_k = np.fft.ifft2(mask_fft * kernel_fft, axes=(-2, -1))
            intensity += weight * (field_k.real**2 + field_k.imag**2)
        return intensity

    def subgrid_intensity(self, masks) -> np.ndarray:
        """The imaging front end for rasterized masks.

        ``masks`` is a ``(B, H, W)`` raster stack
        (:meth:`validate_mask_batch`); its pupil band
        (:func:`raster_band`) is imaged by :meth:`image_band`.
        """
        stack = self.validate_mask_batch(masks)
        band = self.band_spectra(stack.shape[1:])
        return self.image_band(raster_band(stack, band), band)

    def image_band(
        self, mask_band: np.ndarray, band: GridBandSpectra
    ) -> np.ndarray:
        """Exact intensity on the pupil-band subgrid.

        ``mask_band`` is a ``(B, m0, m1)`` stack of mask spectra on
        ``band``'s subgrid, zero outside the pupil band — from
        :func:`raster_band` (rasterized masks) or
        :func:`repro.litho.polygon_band.polygon_band_subgrid` (polygons).
        Every kernel convolves it on the alias-free subgrid (``m >= 4b +
        1``, so the squared field folds nowhere), all K coherent fields
        in one ``(B, K, m0, m1)`` array.  The band-limited intensity is
        fully determined by these samples; :class:`PixelLift` lifts
        pixels from it and :meth:`resample_intensity` rebuilds the dense
        image.  When the band covers the grid the subgrid *is* the grid.

        The fields are ``ifft2`` of the spectra products, which runs the
        row ``ifft`` (axis -1) and then the column ``ifft`` (axis -2).
        The products are zero outside the ``2 b0 + 1`` band rows, so only
        those rows take the row pass, and the column pass runs in place
        over the one array.  Each 1-D transform that runs is the one
        ``ifft2`` runs on the same line; the rows skipped hold zeros
        either way, up to the sign of a zero, which squares away.  Each
        mask's weighted ``|field|^2`` are summed with one
        ``np.add.reduce`` over the kernel axis, which adds in kernel
        order like the per-kernel loop it replaced, so the intensity is
        bit for bit that of one ``ifft2`` per kernel.  A batch holds its
        fields once, plus one mask's ``(K, m0, m1)`` magnitudes.
        """
        m0 = band.subgrid[0]
        b0 = band.band[0]
        fields = np.zeros(
            (len(mask_band), band.count, *band.subgrid), np.complex128
        )
        for rows in (slice(0, b0 + 1), slice(m0 - b0, m0)):
            part = fields[:, :, rows]
            np.multiply(
                mask_band[:, None, rows], band.sub_spectra[None, :, rows],
                out=part,
            )
            np.fft.ifft(part, axis=-1, out=part)
        np.fft.ifft(fields, axis=-2, out=fields)
        intensity = np.empty(mask_band.shape, np.float64)
        weights = band.weights[:, None, None]
        for field, out in zip(fields, intensity):
            power = np.square(field.real)
            power += np.square(field.imag)
            power *= weights
            np.add.reduce(power, axis=0, out=out)
        return intensity

    def resample_intensity(
        self, intensity_sub: np.ndarray, shape: tuple[int, int]
    ) -> np.ndarray:
        """The dense back end: full-grid intensity from subgrid samples.

        An exact zero-padded resample in real arithmetic: ``rfft2`` of
        the ``(B, m0, m1)`` subgrid, the intensity band (radius ``2b``)
        placed into the full grid's half spectrum, then ``irfft2``.  A
        non-compact band's subgrid is the grid: no resample.

        ``irfft2`` runs the column ``ifft`` (axis -2) over every one of
        the ``W // 2 + 1`` columns and then the row ``irfft``.  The half
        spectrum is zero outside its first ``2 b1 + 1`` columns, so the
        column pass runs on those alone, in place; every 1-D transform
        that runs is the one ``irfft2`` runs on the same line, and the
        output is bit for bit ``irfft2``'s.
        """
        band = self.band_spectra((int(shape[0]), int(shape[1])))
        if not band.compact:
            return intensity_sub
        rows, cols = band.shape
        m0, m1 = band.subgrid
        half_cols = 2 * band.band[1] + 1
        spectrum = np.fft.rfft2(intensity_sub, axes=(-2, -1))
        full = np.zeros((spectrum.shape[0], rows, cols // 2 + 1), np.complex128)
        columns = full[..., :half_cols]
        columns[:, band.up_rows_dst] = spectrum[
            :, band.up_rows_src, :half_cols
        ] * ((rows * cols) / (m0 * m1))
        np.fft.ifft(columns, axis=-2, out=columns)
        return np.fft.irfft(full, n=cols, axis=-1)


@lru_cache(maxsize=8)
def build_kernel_set(
    pixel_nm: float = 4.0,
    defocus_nm: float = 0.0,
    source: SourceSpec = SourceSpec(),
    max_kernels: int = 12,
    energy_fraction: float = 0.995,
    wavelength_nm: float = WAVELENGTH_NM,
    numerical_aperture: float = NUMERICAL_APERTURE,
    spectra_store: object | None = None,
) -> OpticalKernelSet:
    """Build (and cache) an :class:`OpticalKernelSet`.

    Construction is lazy: per-grid band spectra are built on first use
    for each simulated shape.  There is no ambit crop anywhere, which is
    what makes the band engine exact.  ``spectra_store`` (a
    :class:`repro.litho.store.KernelSpectraStore`, which hashes by its
    root directory) persists finished band spectra across processes.
    """
    return OpticalKernelSet(
        pixel_nm=pixel_nm,
        defocus_nm=defocus_nm,
        source=source,
        wavelength_nm=wavelength_nm,
        numerical_aperture=numerical_aperture,
        max_kernels=max_kernels,
        energy_fraction=energy_fraction,
        spectra_store=spectra_store,
    )

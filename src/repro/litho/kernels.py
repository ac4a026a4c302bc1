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
  two sources, one per input kind: ``rfft2`` of rasterized masks and the
  Hermitian gather (:func:`gather_band_rfft`), or, for polygon input,
  the closed-form band of the polygons' slabs
  (:func:`repro.litho.polygon_band.polygon_band_subgrid`), with no raster
  and no full-grid FFT;
* front end, :meth:`OpticalKernelSet.image_band` — every kernel's
  coherent field from one inverse FFT over ``(B, K, m0, m1)`` on an
  alias-free subgrid (``m >= 4b + 1`` so the *squared* field, band
  radius ``2b``, folds nowhere), weighted magnitudes summed in kernel
  order (:meth:`~OpticalKernelSet.subgrid_intensity` is the raster-input
  entry: gather, then this);
* sparse back end, :class:`PixelLift` — the subgrid intensity lifted to
  chosen full-grid pixels by a separable lattice DFT (EPE metrology
  needs nothing else), planned once per pixel set;
* dense back end, :meth:`OpticalKernelSet.resample_intensity` — an
  exact zero-padded resample in real arithmetic (subgrid ``rfft2``,
  half spectrum, ``irfft2``).

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
from repro.backend import ArrayBackend, next_fast_len, resolve_backend
from repro.litho.source import SourceSpec
from repro.litho.tcc import build_tcc_grid, socs_spectra


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


def gather_band_rfft(
    mask_rffts,
    band: GridBandSpectra,
    backend: ArrayBackend | None = None,
):
    """Pupil-band gather from half-width ``rfft2`` spectra onto the subgrid.

    A real mask's spectrum is Hermitian, ``F[r, c] = conj(F[(-r) % H,
    (-c) % W])``, so the negative-column half of the pupil band is
    recovered from the stored positive columns with flipped rows.  Values
    match the full-spectrum gather to FFT round-off (the rfft sums in a
    different order — not bit-for-bit).  This is the gather of the one
    imaging front end, :meth:`OpticalKernelSet.subgrid_intensity`.  Runs
    on whatever arrays ``backend`` holds — spectra on a device stay on
    that device (default: host numpy, unchanged behavior).
    """
    backend = backend or resolve_backend("numpy")
    idx = backend.index
    rows, _ = band.shape
    b1 = band.band[1]
    m0, m1 = band.subgrid
    rows_src = band.rows_src
    gathered = backend.empty(
        (mask_rffts.shape[0], len(rows_src), len(band.cols_src)),
        backend.complex128,
    )
    gathered[..., : b1 + 1] = mask_rffts[
        :, idx(rows_src[:, None]), idx(np.arange(b1 + 1)[None, :])
    ]
    flipped = (rows - rows_src) % rows
    gathered[..., b1 + 1 :] = mask_rffts[
        :, idx(flipped[:, None]), idx(np.arange(b1, 0, -1)[None, :])
    ].conj()
    sub = backend.zeros(
        (mask_rffts.shape[0], m0, m1), backend.complex128
    )
    sub[:, idx(band.rows_dst[:, None]), idx(band.cols_dst[None, :])] = gathered
    return sub


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

    def __call__(self, intensity_sub, fft: ArrayBackend) -> np.ndarray:
        """``(B, S)`` host values of ``(B, m0, m1)`` subgrid intensities.

        ``intensity_sub`` may be host or device resident; the GEMMs run
        wherever the backend's arrays live, and the resolved values
        always come back host-side (the metrology boundary).
        """
        band = self.band
        if not band.compact:
            return fft.to_host(
                intensity_sub[:, fft.index(self.rows), fft.index(self.cols)]
            )
        half_cols = 2 * band.band[1] + 1
        spectrum = fft.rfft2(intensity_sub, axes=(-2, -1))
        spec_band = spectrum[:, fft.index(band.up_rows_src), :half_cols]
        partial = fft.to_device(self.phase_rows) @ spec_band
        lattice = fft.concat([partial.real, partial.imag], axis=-1) @ (
            fft.to_device(self.phase_cols)
        )
        return fft.to_host(
            lattice[:, fft.index(self.row_idx), fft.index(self.col_idx)]
        )


def band_values_at_pixels(
    intensity_sub,
    band: GridBandSpectra,
    rows: np.ndarray,
    cols: np.ndarray,
    fft: ArrayBackend,
) -> np.ndarray:
    """Full-grid pixel values of band-limited subgrid intensities.

    One :class:`PixelLift`, planned for this call and applied: two
    small GEMMs on the lattice of the pixel set's distinct rows x
    columns, then a gather.  The phases cost ``(R_u + C_u) F`` per call
    rather than ``F S``, so a pixel set seen once (the verifier's) has
    nothing worth caching.  Returns ``(B, S)`` host values.
    """
    return PixelLift(band, rows, cols)(intensity_sub, fft)


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
        backend / device: Array/transform backend selection (see
            :mod:`repro.backend`) — ``backend`` is one of
            :data:`~repro.backend.BACKEND_NAMES`, and ``device`` picks
            the torch device (``None`` = CUDA when available).  All
            entry points share the one resolved
            :class:`~repro.backend.ArrayBackend`; device-resident copies
            of the spectra are keyed by backend identity, so
            swapping the backend can never serve wrong-device spectra.
            The batched band engine and the sparse gathers run on the
            device; the single-mask reference path always runs
            host-side.
        spectra_store: Optional disk-persistent store
            (:class:`repro.litho.store.KernelSpectraStore`) consulted on
            band-spectra misses before building, and written after every
            build — a warm store turns the ~10-70 ms per-shape kernel
            build into one ``.npz`` read on fresh processes.  The build is
            FFT-free, so stored entries are backend-independent and
            bit-for-bit equal to an in-process build.
    """

    pixel_nm: float
    defocus_nm: float
    source: SourceSpec
    wavelength_nm: float = WAVELENGTH_NM
    numerical_aperture: float = NUMERICAL_APERTURE
    max_kernels: int = 12
    energy_fraction: float = 0.995
    fft_cache_capacity: int = 6
    backend: str = "numpy"
    device: str | None = None
    spectra_store: object | None = None
    _band_cache: "OrderedDict[tuple[int, int], GridBandSpectra]" = field(
        default_factory=OrderedDict, repr=False
    )
    _fft_cache: "OrderedDict[tuple, np.ndarray]" = field(
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
        # Resolve eagerly so a bad backend name fails at construction.
        resolve_backend(self.backend, self.device)

    # -- backend ---------------------------------------------------------------
    @property
    def fft(self) -> ArrayBackend:
        """The resolved array backend shared by every entry point.

        Kept under its historical name — it began as an FFT-only
        backend — but it now carries the full array namespace, device
        policy and dtype policy (:class:`repro.backend.ArrayBackend`).
        """
        return resolve_backend(self.backend, self.device)

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
        outside the pupil band and backend-independent (no transform is
        involved).
        """
        key = (int(shape[0]), int(shape[1]))
        self._validate_grid(key)
        cache_key = (key, "band")
        with self._cache_lock:
            cached = self._fft_cache.get(cache_key)
            if cached is not None:
                self._fft_cache.move_to_end(cache_key)
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
            self._fft_cache[cache_key] = stack
            while len(self._fft_cache) > self.fft_cache_capacity:
                self._fft_cache.popitem(last=False)
            return stack

    # -- validation ----------------------------------------------------------
    def _validate_grid(self, shape: tuple[int, int]) -> None:
        if len(shape) != 2:
            raise LithoError(f"grid shape must be 2-D, got {shape}")
        # Raises "frequency lattice too coarse" for unusably small grids.
        self.band_spectra(shape)

    def validate_mask_batch(self, masks):
        """Check and coerce a ``(B, H, W)`` stack of rasterized masks.

        Returns the stack as the backend's native float64 array: a host
        numpy array under numpy (no-copy for float64 input, bit
        for bit as before), a device tensor under torch — host masks are
        moved to the device here, device masks stay put.
        """
        backend = self.fft
        stack = backend.asarray_f64(masks)
        if stack.ndim != 3:
            raise LithoError(
                f"mask batch must be 3-D (B, H, W), got shape "
                f"{tuple(stack.shape)}"
            )
        if stack.shape[0] == 0:
            raise LithoError("mask batch is empty")
        self._validate_grid(tuple(stack.shape[1:]))
        return stack

    @staticmethod
    def _check_rfft_shape(mask_rffts, shape: tuple[int, int]) -> tuple[int, int]:
        if mask_rffts.ndim != 3:
            raise LithoError(
                "mask rfft spectra must be 3-D (B, H, W//2+1), got shape "
                f"{mask_rffts.shape}"
            )
        shape = (int(shape[0]), int(shape[1]))
        if mask_rffts.shape[-2:] != (shape[0], shape[1] // 2 + 1):
            raise LithoError(
                f"rfft spectra {mask_rffts.shape[-2:]} do not match grid "
                f"{shape} (expected ({shape[0]}, {shape[1] // 2 + 1}))"
            )
        return shape

    # -- convolution ---------------------------------------------------------
    def convolve_intensity(self, mask: np.ndarray) -> np.ndarray:
        """Aerial intensity ``sum_k w_k |h_k * mask|^2`` (circular conv).

        This is the retained *spatial reference path*: one full-grid
        inverse FFT per kernel over the scattered spectra.  ``mask`` is a
        2-D real array (binary or graytone); its full spectrum is the
        Hermitian extension of ``rfft2``, so inside the pupil band it
        holds the very coefficients :func:`gather_band_rfft` takes.
        Always runs host-side — it is the numerical reference the device
        paths are tested against, so it must not depend on the device
        library.
        """
        mask = self.fft.to_host(mask)
        if mask.ndim != 2:
            raise LithoError(f"mask must be 2-D, got shape {mask.shape}")
        self._validate_grid(mask.shape)
        kernel_ffts = self.kernel_spectra(mask.shape)
        weights = self.band_spectra(mask.shape).weights
        fft = resolve_backend("numpy")
        rows, cols = mask.shape
        half = fft.rfft2(mask.astype(np.float64), axes=(-2, -1))
        mask_fft = np.empty(mask.shape, dtype=np.complex128)
        mask_fft[:, : half.shape[1]] = half
        tail = np.arange(half.shape[1], cols)
        mask_fft[:, tail] = half[(-np.arange(rows)) % rows][:, cols - tail].conj()
        intensity = np.zeros(mask.shape, dtype=np.float64)
        for weight, kernel_fft in zip(weights, kernel_ffts):
            field_k = fft.ifft2(mask_fft * kernel_fft, axes=(-2, -1))
            intensity += weight * (field_k.real**2 + field_k.imag**2)
        return intensity

    def _device_band_arrays(self, band: GridBandSpectra):
        """``(weights, sub_spectra)`` resident where the backend computes.

        numpy returns the band's own arrays (no copy); the torch
        backend lazily materializes device copies, cached in the
        bounded ``_fft_cache`` under the backend's identity so a
        backend/device swap can never serve wrong-residency spectra.
        This is what "GridBandSpectra held device-side" means: the
        frozen dataclass stays host-canonical (it is what the spectra
        store persists), and the per-device views hang off the kernel
        set that owns them.
        """
        backend = self.fft
        if backend.is_numpy:
            return band.weights, band.sub_spectra
        cache_key = (band.shape, "device-spectra", backend.identity)
        with self._cache_lock:
            cached = self._fft_cache.get(cache_key)
            if cached is not None:
                self._fft_cache.move_to_end(cache_key)
                return cached
        pair = (
            backend.to_device(band.weights),
            backend.to_device(band.sub_spectra),
        )
        with self._cache_lock:
            self._fft_cache[cache_key] = pair
            while len(self._fft_cache) > self.fft_cache_capacity:
                self._fft_cache.popitem(last=False)
        return pair

    def subgrid_intensity(self, mask_rffts, shape: tuple[int, int]):
        """The imaging front end for rasterized masks.

        ``mask_rffts`` are the ``(B, H, W//2 + 1)`` half-width spectra of
        a real mask stack on an ``(H, W)`` grid.  The pupil band is
        gathered by Hermitian symmetry (:func:`gather_band_rfft`) and
        imaged by :meth:`image_band`.  Returns the backend's native
        array (device-resident under torch).
        """
        shape = self._check_rfft_shape(mask_rffts, shape)
        self._validate_grid(shape)
        band = self.band_spectra(shape)
        return self.image_band(gather_band_rfft(mask_rffts, band, self.fft), band)

    def image_band(self, mask_band, band: GridBandSpectra):
        """Exact intensity on the pupil-band subgrid.

        ``mask_band`` is a ``(B, m0, m1)`` stack of mask spectra on
        ``band``'s subgrid, zero outside the pupil band — from
        :func:`gather_band_rfft` (rasterized masks) or
        :func:`repro.litho.polygon_band.polygon_band_subgrid` (polygons).
        Every kernel convolves it on the alias-free subgrid (``m >= 4b +
        1``, so the squared field folds nowhere): the K coherent fields
        come from one inverse FFT over ``(B, K, m0, m1)``, and their
        weighted magnitudes are summed in kernel order.  The band-limited
        intensity is fully determined by these samples;
        :class:`PixelLift` lifts pixels from it and
        :meth:`resample_intensity` rebuilds the dense image.  When the
        band covers the grid the subgrid *is* the grid.
        """
        fft = self.fft
        weights, sub_spectra = self._device_band_arrays(band)
        fields = fft.ifft2(mask_band[:, None] * sub_spectra[None], axes=(-2, -1))
        intensity = fft.zeros(mask_band.shape, fft.float64)
        for k, weight in enumerate(weights):
            field_k = fields[:, k]
            intensity += weight * (field_k.real**2 + field_k.imag**2)
        return intensity

    def resample_intensity(self, intensity_sub, shape: tuple[int, int]) -> np.ndarray:
        """The dense back end: full-grid intensity from subgrid samples.

        An exact zero-padded resample in real arithmetic: ``rfft2`` of
        the ``(B, m0, m1)`` subgrid, the intensity band (radius ``2b``)
        placed into the full grid's half spectrum, then ``irfft2``.  The
        dense aerial is the host/device boundary, so the result is host
        numpy.  A non-compact band's subgrid is the grid: no resample.
        """
        band = self.band_spectra((int(shape[0]), int(shape[1])))
        fft = self.fft
        if not band.compact:
            return fft.to_host(intensity_sub)
        rows, cols = band.shape
        m0, m1 = band.subgrid
        half_cols = 2 * band.band[1] + 1
        spectrum = fft.rfft2(intensity_sub, axes=(-2, -1))
        full = fft.zeros(
            (spectrum.shape[0], rows, cols // 2 + 1), fft.complex128
        )
        full[:, fft.index(band.up_rows_dst), :half_cols] = spectrum[
            :, fft.index(band.up_rows_src), :half_cols
        ] * ((rows * cols) / (m0 * m1))
        return fft.to_host(fft.irfft2(full, s=(rows, cols), axes=(-2, -1)))


@lru_cache(maxsize=8)
def build_kernel_set(
    pixel_nm: float = 4.0,
    defocus_nm: float = 0.0,
    source: SourceSpec = SourceSpec(),
    max_kernels: int = 12,
    energy_fraction: float = 0.995,
    wavelength_nm: float = WAVELENGTH_NM,
    numerical_aperture: float = NUMERICAL_APERTURE,
    backend: str = "numpy",
    device: str | None = None,
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
        backend=backend,
        device=device,
        spectra_store=spectra_store,
    )

"""Optical kernel sets: frequency-native, band-limited SOCS spectra.

A :class:`OpticalKernelSet` owns the optics of one process condition
(focus setting).  Its only kernel representation is *per-grid band
spectra* (:class:`GridBandSpectra`): for every raster shape it simulates
on, the TCC is built directly on that grid's DFT frequency lattice
(:func:`repro.litho.tcc.build_tcc_grid`) and eigendecomposed into SOCS
kernel spectra that are exactly zero outside the pupil band.  Because no
spatial crop ever happens, the pupil-band subgrid engine is *exact*.
Finished spectra persist across processes through
:class:`repro.litho.store.KernelSpectraStore`.

Convolution entry points:

* :meth:`OpticalKernelSet.convolve_intensity` — the single-mask spatial
  reference path: full-grid per-kernel inverse FFTs over the scattered
  band spectra.  Everything else is tested against it.
* :meth:`OpticalKernelSet.convolve_intensity_batch` /
  :meth:`~OpticalKernelSet.intensity_from_mask_ffts` — the one engine
  for ``(B, H, W)`` stacks: gather the pupil-band mask coefficients, run
  the per-kernel inverse FFTs on an alias-free ``m x m`` subgrid
  (``m >= 4b + 1`` so the *squared* field, band radius ``2b``, folds
  nowhere), and resample the intensity to the full grid with one
  zero-padded FFT interpolation.  Exact to FFT round-off (<= 1e-9
  absolute intensity) against the reference path.  When the band covers
  the grid the subgrid *is* the grid, so the same gather and
  convolution run at full size and the resample is skipped — bit-for-bit
  equal to the reference path.

Lower-level helpers (:meth:`~OpticalKernelSet.kernel_spectra`,
:meth:`~OpticalKernelSet.weights_for`,
:meth:`~OpticalKernelSet.fields_from_mask_fft`) expose the cached
full-grid transfer functions to callers that hold mask spectra already —
the single-mask reference path and the pixel-ILT gradient loop.
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


_HOST_BACKEND_ARGS = ("numpy", 1)
"""``resolve_backend`` arguments of the single-threaded host backend the
module-level helpers default to when no backend is passed — numerically
identical to the pre-array-API behavior (bare ``np.*`` calls)."""


def _host_backend() -> ArrayBackend:
    return resolve_backend(*_HOST_BACKEND_ARGS)


_PHASE_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_PHASE_CACHE_CAPACITY = 32
_PHASE_LOCK = threading.Lock()
"""Module-level LRU of sparse-gather phase matrices.  Keyed by (grid
shape, band radii, pixel set, backend array identity), so every kernel
set sharing one optics geometry — the simulator's focus and defocus sets
in particular — reuses one matrix, and a device backend can never be
served a host-resident matrix (or vice versa); guarded because the
daemon's verifier thread races ``score_moves_epe`` callers."""


def _sparse_phase_matrix(
    shape: tuple[int, int],
    band: GridBandSpectra,
    rows: np.ndarray,
    cols: np.ndarray,
    backend: ArrayBackend,
):
    """Real-stacked inverse-DFT phase matrix for a fixed pixel set.

    Evaluating the zero-padded inverse FFT of ``_band_intensity`` at S
    chosen pixels is the direct DFT ``I[s] = Re(sum_f spec[f] *
    exp(2j pi (k_r r_s / H + k_c c_s / W))) * upscale / (H W)`` over the
    F = (4b0+1)(4b1+1) intensity-band frequencies.  The matrix is built
    separably (row phases x column phases) and returned *real-stacked* as
    ``(2F, S)`` — ``[[Re P], [-Im P]]`` — so the per-batch evaluation is
    one real GEMM of the ``[Re spec, Im spec]`` stack against it (half
    the FLOPs of the complex product, result already real).

    The matrix itself is built host-side in float64 on every backend
    (identical bits everywhere); what the cache stores is the
    backend-native copy — the host array itself for numpy/scipy, a
    device tensor for torch — keyed by the backend's array identity.
    """
    key = (
        shape,
        band.band,
        rows.tobytes(),
        cols.tobytes(),
        backend.array_identity,
    )
    with _PHASE_LOCK:
        cached = _PHASE_CACHE.get(key)
        if cached is not None:
            _PHASE_CACHE.move_to_end(key)
            return cached
    height, width = shape
    m0, m1 = band.subgrid
    k_rows = band.up_rows_dst.astype(np.float64)
    k_cols = band.up_cols_dst.astype(np.float64)
    phase_r = np.exp((2j * np.pi / height) * np.outer(k_rows, rows))
    phase_c = np.exp((2j * np.pi / width) * np.outer(k_cols, cols))
    # upscale / (H W) == 1 / (m0 m1): the resample gain times the
    # inverse-transform normalization.
    matrix = (phase_r[:, None, :] * phase_c[None, :, :]).reshape(
        len(k_rows) * len(k_cols), len(rows)
    ) / (m0 * m1)
    stacked = backend.to_device(
        np.concatenate([matrix.real, -matrix.imag], axis=0)
    )
    with _PHASE_LOCK:
        _PHASE_CACHE[key] = stacked
        while len(_PHASE_CACHE) > _PHASE_CACHE_CAPACITY:
            _PHASE_CACHE.popitem(last=False)
    return stacked


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
    up_cols_src: np.ndarray
    up_rows_dst: np.ndarray
    up_cols_dst: np.ndarray

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
    different order — not bit-for-bit).  Public module-level entry point:
    the surrogate's feature pipeline shares it with the sparse EPE path.
    Runs on whatever arrays ``backend`` holds — spectra on a device stay
    on that device (default: host numpy, unchanged behavior).
    """
    backend = backend or _host_backend()
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


def band_limited_mask_subgrid(
    mask_rffts: np.ndarray, band: GridBandSpectra, fft
) -> np.ndarray:
    """Band-limited mask raster resampled onto the intensity subgrid.

    ``(B, H, W//2+1)`` rfft spectra map to real ``(B, m0, m1)`` rasters on
    the same physical 0..1 transmission scale as the full-grid mask: the
    subgrid inverse FFT carries a ``1/(m0 m1)`` normalization where the
    band coefficients came from an ``(H, W)`` forward transform, so the
    resample gain is ``(m0 m1)/(H W)``.  This is the surrogate model's
    input feature — everything the projection optics can see of the mask,
    at the cheapest alias-free resolution.
    """
    rows, cols = band.shape
    m0, m1 = band.subgrid
    sub = gather_band_rfft(mask_rffts, band, fft)
    return fft.to_host(
        fft.ifft2(sub, axes=(-2, -1)).real * ((m0 * m1) / (rows * cols))
    )


_BAND_DFT_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_BAND_DFT_CACHE_CAPACITY = 16
_BAND_DFT_LOCK = threading.Lock()
"""LRU of the separable direct-DFT matrices used by
:func:`band_limited_mask_subgrid_direct`; keyed per (grid shape, band,
backend array identity) — matrices are built host-side and cached as
backend-native copies, like the sparse phase matrices."""


def _band_dft_matrices(
    shape: tuple[int, int], band: GridBandSpectra, backend: ArrayBackend
) -> tuple:
    key = (shape, band.band, backend.array_identity)
    with _BAND_DFT_LOCK:
        cached = _BAND_DFT_CACHE.get(key)
        if cached is not None:
            _BAND_DFT_CACHE.move_to_end(key)
            return cached
    height, width = shape
    b0, b1 = band.band
    k_rows = _band_indices(height, b0).astype(np.float64)
    k_cols = _band_indices(width, b1).astype(np.float64)
    left = np.exp(
        (-2j * np.pi / height) * np.outer(k_rows, np.arange(height))
    )
    right = np.exp(
        (-2j * np.pi / width) * np.outer(np.arange(width), k_cols)
    )
    # Stack real/imag parts so the hot path runs real GEMMs only — a
    # complex @ real matmul would promote the whole mask stack to
    # complex128 first, which costs more than the arithmetic.
    right_ri = np.ascontiguousarray(
        np.concatenate([right.real, right.imag], axis=1)
    )
    pair = (backend.to_device(left), backend.to_device(right_ri))
    with _BAND_DFT_LOCK:
        _BAND_DFT_CACHE[key] = pair
        while len(_BAND_DFT_CACHE) > _BAND_DFT_CACHE_CAPACITY:
            _BAND_DFT_CACHE.popitem(last=False)
    return pair


def band_limited_mask_subgrid_direct(
    masks, band: GridBandSpectra, backend: ArrayBackend | None = None
):
    """:func:`band_limited_mask_subgrid` without the full-grid transform.

    The pupil band holds only ``(2 b0 + 1) x (2 b1 + 1)`` coefficients, so
    for screening-sized batches two small GEMMs against cached separable
    DFT matrices beat a ``(B, H, W)`` forward FFT that computes ``H W``
    coefficients and discards almost all of them.  Values agree with the
    FFT route to float round-off (same linear map, different summation
    order); the fast path of the surrogate screener.  Under a device
    backend the two GEMMs (and the result) live on the device.
    """
    backend = backend or _host_backend()
    masks = backend.asarray_f64(masks)
    left, right_ri = _band_dft_matrices(band.shape, band, backend)
    half = right_ri.shape[1] // 2
    mixed = masks @ right_ri
    col_re, col_im = mixed[..., :half], mixed[..., half:]
    coeffs = (left.real @ col_re - left.imag @ col_im) + 1j * (
        left.real @ col_im + left.imag @ col_re
    )
    return band_coeffs_to_subgrid(coeffs, band, backend)


def band_coeffs_to_subgrid(
    coeffs, band: GridBandSpectra, backend: ArrayBackend | None = None
):
    """Real-space subgrid signal of ``(B, 2 b0 + 1, b1 + 1)`` band coefficients.

    ``coeffs`` are full-grid DFT coefficients at the band frequencies (row
    order ``_band_indices``); the subgrid scatter plus a small inverse FFT
    reproduce :func:`band_limited_mask_subgrid`'s output scale.  Host
    backends keep the historical ``np.fft`` inverse transform (the
    subgrid is ~30x30 — threading never pays here, and the numpy route
    stays bit-for-bit with the seed history); the torch backend runs the
    inverse transform on its device and returns a device array.
    """
    backend = backend or _host_backend()
    m0, m1 = band.subgrid
    rows, cols = band.shape
    sub = backend.zeros((coeffs.shape[0], m0, m1), backend.complex128)
    idx = backend.index
    sub[:, idx(band.rows_dst[:, None]), idx(band.cols_dst[None, :])] = coeffs
    if backend.is_numpy:
        return np.fft.ifft2(sub, axes=(-2, -1)).real * (
            (m0 * m1) / (rows * cols)
        )
    return backend.ifft2(sub, axes=(-2, -1)).real * ((m0 * m1) / (rows * cols))


def band_values_at_pixels(
    intensity_sub,
    band: GridBandSpectra,
    rows: np.ndarray,
    cols: np.ndarray,
    fft: ArrayBackend,
) -> np.ndarray:
    """Full-grid pixel values of a band-limited subgrid intensity.

    ``(B, m0, m1)`` subgrid intensities (exact or surrogate-predicted)
    evaluate at S full-grid pixels via one forward FFT and one real GEMM
    against the cached phase matrix — the same direct DFT gather the
    sparse EPE path uses, factored out so surrogate predictions can ride
    the identical resample map as exact metrology.  ``intensity_sub``
    may be host or device resident; the FFT and GEMM run wherever the
    backend's arrays live, and the resolved ``(B, S)`` values always
    come back host-side (the metrology boundary).
    """
    idx = fft.index
    spectrum = fft.fft2(intensity_sub, axes=(-2, -1))
    spec_band = spectrum[
        :, idx(band.up_rows_src[:, None]), idx(band.up_cols_src[None, :])
    ].reshape(intensity_sub.shape[0], -1)
    stacked = fft.concat([spec_band.real, spec_band.imag], axis=1)
    return fft.to_host(
        stacked @ _sparse_phase_matrix(band.shape, band, rows, cols, fft)
    )


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
        backend / fft_workers / device: Array/transform backend
            selection (see :mod:`repro.backend`) — ``backend`` accepts
            every :data:`~repro.backend.BACKEND_NAMES` spelling, and
            ``device`` picks the torch device (``None`` = CUDA when
            available).  All entry points share the one resolved
            :class:`~repro.backend.ArrayBackend`; device-resident copies
            of the spectra are keyed by backend array identity, so
            swapping the backend can never serve wrong-device spectra.
            The batched band engine and the sparse gathers run on the
            device; the single-mask reference path and the pixel-ILT
            field helper always run host-side.
        spectra_store: Optional disk-persistent store
            (:class:`repro.litho.store.KernelSpectraStore`) consulted on
            band-spectra misses before building, and written after every
            build — a warm store turns the ~20-50 ms per-shape TCC warmup
            into one ``.npz`` read on fresh processes.  The build is
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
    backend: str = "auto"
    fft_workers: int | None = None
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
        resolve_backend(self.backend, self.fft_workers, self.device)

    # -- backend ---------------------------------------------------------------
    @property
    def fft(self) -> ArrayBackend:
        """The resolved array backend shared by every entry point.

        Kept under its historical name — it began as an FFT-only
        backend — but it now carries the full array namespace, device
        policy and dtype policy (:class:`repro.backend.ArrayBackend`).
        """
        return resolve_backend(self.backend, self.fft_workers, self.device)

    def _host_fft(self) -> ArrayBackend:
        """The host-side backend for paths that are host-only by design
        (single-mask reference, ILT field gradients).  Numpy/scipy
        backends pass through; a device backend degrades to
        single-threaded numpy."""
        fft = self.fft
        return fft if fft.is_numpy else resolve_backend("numpy", 1)

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
        return GridBandSpectra(
            shape=shape,
            weights=weights,
            band=(b0, b1),
            subgrid=(m0, m1),
            compact=compact,
            sub_spectra=sub_spectra,
            rows_src=_band_indices(rows, b0),
            cols_src=_band_indices(cols, b1),
            rows_dst=_band_indices(m0, b0),
            cols_dst=_band_indices(m1, b1),
            up_rows_src=_band_indices(m0, 2 * b0),
            up_cols_src=_band_indices(m1, 2 * b1),
            up_rows_dst=_band_indices(rows, 2 * b0),
            up_cols_dst=_band_indices(cols, 2 * b1),
        )

    def weights_for(self, shape: tuple[int, int]) -> np.ndarray:
        """Kernel weights matching :meth:`kernel_spectra` for one shape."""
        return self.band_spectra((int(shape[0]), int(shape[1]))).weights

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
        numpy array under numpy/scipy (no-copy for float64 input, bit
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

    def _compact_band(self, shape: tuple[int, int], entry: str) -> GridBandSpectra:
        band = self.band_spectra(shape)
        if not band.compact:
            raise LithoError(
                f"{entry} needs a compact pupil band; the {shape} grid's "
                "band covers it — use intensity_at_pixels on full spectra "
                "instead"
            )
        return band

    # -- convolution ---------------------------------------------------------
    def convolve_intensity(self, mask: np.ndarray) -> np.ndarray:
        """Aerial intensity ``sum_k w_k |h_k * mask|^2`` (circular conv).

        This is the retained *spatial reference path*: one full-grid
        inverse FFT per kernel over the scattered spectra.  ``mask`` is a
        2-D real array (binary or graytone).  Always runs host-side —
        it is the numerical reference the device paths are tested
        against, so it must not depend on the device library.
        """
        mask = self.fft.to_host(mask)
        if mask.ndim != 2:
            raise LithoError(f"mask must be 2-D, got shape {mask.shape}")
        self._validate_grid(mask.shape)
        kernel_ffts = self.kernel_spectra(mask.shape)
        weights = self.weights_for(mask.shape)
        fft = self._host_fft()
        mask_fft = fft.fft2(mask.astype(np.float64), axes=(-2, -1))
        intensity = np.zeros(mask.shape, dtype=np.float64)
        for weight, kernel_fft in zip(weights, kernel_ffts):
            field_k = fft.ifft2(mask_fft * kernel_fft, axes=(-2, -1))
            intensity += weight * (field_k.real**2 + field_k.imag**2)
        return intensity

    def convolve_intensity_batch(self, masks: np.ndarray) -> np.ndarray:
        """Aerial intensities of a ``(B, H, W)`` mask stack (band engine).

        One vectorized forward FFT over the batch axis feeds the
        band-limited subgrid engine (exact: the spectra carry no energy
        outside the gathered band).  Per-mask results are bit-for-bit
        independent of the batch size.
        """
        stack = self.validate_mask_batch(masks)
        mask_ffts = self.fft.fft2(stack, axes=(-2, -1))
        return self.intensity_from_mask_ffts(mask_ffts)

    def intensity_from_mask_ffts(self, mask_ffts: np.ndarray) -> np.ndarray:
        """Intensities from precomputed ``(B, H, W)`` mask spectra.

        Lets callers share one forward FFT across several kernel sets
        (the simulator's focus + defocus corner sweep).
        """
        if mask_ffts.ndim != 3:
            raise LithoError(
                f"mask spectra must be 3-D (B, H, W), got shape {mask_ffts.shape}"
            )
        shape = tuple(mask_ffts.shape[-2:])
        self._validate_grid(shape)
        return self._band_intensity(mask_ffts, self.band_spectra(shape))

    def _gather_band(
        self, mask_ffts, band: GridBandSpectra
    ):
        """Pupil-band mask coefficients scattered onto the subgrid."""
        backend = self.fft
        idx = backend.index
        m0, m1 = band.subgrid
        sub = backend.zeros(
            (mask_ffts.shape[0], m0, m1), backend.complex128
        )
        sub[:, idx(band.rows_dst[:, None]), idx(band.cols_dst[None, :])] = (
            mask_ffts[:, idx(band.rows_src[:, None]), idx(band.cols_src[None, :])]
        )
        return sub

    def _device_band_arrays(self, band: GridBandSpectra):
        """``(weights, sub_spectra)`` resident where the backend computes.

        Host backends return the band's own arrays (no copy); the torch
        backend lazily materializes device copies, cached in the
        bounded ``_fft_cache`` under the backend's array identity so a
        backend/device swap can never serve wrong-residency spectra.
        This is what "GridBandSpectra held device-side" means: the
        frozen dataclass stays host-canonical (it is what the spectra
        store persists), and the per-device views hang off the kernel
        set that owns them.
        """
        backend = self.fft
        if backend.is_numpy:
            return band.weights, band.sub_spectra
        cache_key = (band.shape, "device-spectra", backend.array_identity)
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

    def _subgrid_intensity(
        self, sub, band: GridBandSpectra
    ):
        """Per-kernel subgrid convolution summed into one intensity.

        Runs wherever ``sub`` lives: host numpy under numpy/scipy,
        on-device under torch (with device-resident kernel spectra from
        :meth:`_device_band_arrays`).
        """
        fft = self.fft
        weights, sub_spectra = self._device_band_arrays(band)
        intensity = fft.zeros(sub.shape, fft.float64)
        for weight, kernel_sub in zip(weights, sub_spectra):
            field_k = fft.ifft2(sub * kernel_sub, axes=(-2, -1))
            intensity += weight * (field_k.real**2 + field_k.imag**2)
        return intensity

    def _band_intensity(
        self, mask_ffts, band: GridBandSpectra
    ) -> np.ndarray:
        """The engine: gather band, convolve, resample intensity.

        The gather, per-kernel convolution and zero-padded resample all
        run backend-native; the dense full-grid aerial is the
        host/device boundary, so the returned array is always host
        numpy.  A non-compact band's subgrid is the full grid, so its
        intensity needs no resample.
        """
        fft = self.fft
        sub = self._gather_band(mask_ffts, band)
        intensity = self._subgrid_intensity(sub, band)
        if not band.compact:
            return fft.to_host(intensity)
        rows, cols = band.shape
        m0, m1 = band.subgrid
        idx = fft.index
        # Exact zero-padded FFT resampling of the (band-limited) intensity.
        spectrum = fft.fft2(intensity, axes=(-2, -1))
        upscale = (rows * cols) / (m0 * m1)
        full = fft.zeros((mask_ffts.shape[0], rows, cols), fft.complex128)
        full[:, idx(band.up_rows_dst[:, None]), idx(band.up_cols_dst[None, :])] = (
            spectrum[:, idx(band.up_rows_src[:, None]), idx(band.up_cols_src[None, :])]
            * upscale
        )
        return fft.to_host(fft.ifft2(full, axes=(-2, -1)).real)

    def _sparse_band_values(
        self,
        sub: np.ndarray,
        band: GridBandSpectra,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        """Intensity at a pixel set from subgrid-scattered mask bands.

        The subgrid convolution runs exactly as in :meth:`_band_intensity`;
        the full-grid inverse FFT of the intensity is replaced by a direct
        DFT gather — one real GEMM of the ``(B, 2F)`` intensity-band
        spectra against the cached ``(2F, S)`` phase matrix.
        """
        intensity = self._subgrid_intensity(sub, band)
        return band_values_at_pixels(intensity, band, rows, cols, self.fft)

    def intensity_at_pixels(
        self, mask_ffts: np.ndarray, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Aerial intensity of ``(B, H, W)`` mask spectra at S pixels.

        Returns ``(B, S)`` values mathematically identical to
        ``intensity_from_mask_ffts(mask_ffts)[:, rows, cols]`` (<= 1e-12
        absolute — the exact zero-padded FFT resample and the direct DFT
        gather are the same linear map evaluated in different summation
        orders).  On the compact band path the full-grid inverse
        transform never happens: cost drops from O(B H W log(H W)) to one
        ``(B, 2F) x (2F, S)`` GEMM after the subgrid convolution.  A
        non-compact band's intensity already lives on the full grid, so
        it is gathered directly, which is exact by construction.
        """
        if mask_ffts.ndim != 3:
            raise LithoError(
                f"mask spectra must be 3-D (B, H, W), got shape {mask_ffts.shape}"
            )
        shape = tuple(mask_ffts.shape[-2:])
        self._validate_grid(shape)
        rows, cols = _validate_pixel_set(shape, rows, cols)
        band = self.band_spectra(shape)
        if not band.compact:
            return self._band_intensity(mask_ffts, band)[:, rows, cols]
        sub = self._gather_band(mask_ffts, band)
        return self._sparse_band_values(sub, band, rows, cols)

    def sparse_intensity_from_rfft(
        self,
        mask_rffts: np.ndarray,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        """Sparse intensity from half-width real-input spectra.

        The fast path of the sparse EPE pipeline: callers forward-
        transform their real mask stack once with
        :meth:`~repro.backend.ArrayBackend.rfft2` (about half the cost of
        the full ``fft2``) and share the result across the focus and
        defocus kernel sets; the pupil band is reconstructed by Hermitian
        symmetry.  Only available on the compact band path — callers
        without a compact band should compute ``fft2`` and use
        :meth:`intensity_at_pixels` instead.
        """
        shape = self._check_rfft_shape(mask_rffts, shape)
        self._validate_grid(shape)
        rows, cols = _validate_pixel_set(shape, rows, cols)
        band = self._compact_band(shape, "sparse_intensity_from_rfft")
        sub = gather_band_rfft(mask_rffts, band, self.fft)
        return self._sparse_band_values(sub, band, rows, cols)

    def subgrid_intensity_from_rfft(
        self, mask_rffts: np.ndarray, shape: tuple[int, int]
    ) -> np.ndarray:
        """Exact aerial intensity on the pupil-band subgrid, ``(B, m0, m1)``.

        The band-limited intensity is fully determined by its subgrid
        samples (``m >= 4b + 1`` per axis), so this is the cheapest exact
        representation of the aerial image — the surrogate trainer uses it
        as ground-truth labels, and :func:`band_values_at_pixels` lifts
        either these or surrogate predictions to full-grid pixels.
        Requires a compact band, like :meth:`sparse_intensity_from_rfft`.
        """
        shape = self._check_rfft_shape(mask_rffts, shape)
        self._validate_grid(shape)
        band = self._compact_band(shape, "subgrid_intensity_from_rfft")
        sub = gather_band_rfft(mask_rffts, band, self.fft)
        return self.fft.to_host(self._subgrid_intensity(sub, band))

    def fields_from_mask_fft(self, mask_fft: np.ndarray) -> np.ndarray:
        """Per-kernel coherent fields ``(K, H, W)`` for one mask spectrum.

        Used by gradient-based optimizers (pixel ILT) that need the
        fields themselves, not just the summed intensity; pair with
        :meth:`weights_for` on the same shape.  Host-side always (the
        pixel-ILT gradient loop is numpy-native).
        """
        mask_fft = self.fft.to_host(mask_fft)
        if mask_fft.ndim != 2:
            raise LithoError(
                f"mask spectrum must be 2-D, got shape {mask_fft.shape}"
            )
        kernel_ffts = self.kernel_spectra(mask_fft.shape)
        return self._host_fft().ifft2(mask_fft[None] * kernel_ffts, axes=(-2, -1))


@lru_cache(maxsize=8)
def build_kernel_set(
    pixel_nm: float = 4.0,
    defocus_nm: float = 0.0,
    source: SourceSpec = SourceSpec(),
    max_kernels: int = 12,
    energy_fraction: float = 0.995,
    wavelength_nm: float = WAVELENGTH_NM,
    numerical_aperture: float = NUMERICAL_APERTURE,
    backend: str = "auto",
    fft_workers: int | None = None,
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
        fft_workers=fft_workers,
        device=device,
        spectra_store=spectra_store,
    )

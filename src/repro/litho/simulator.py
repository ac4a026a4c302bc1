"""Lithography simulator facade.

:class:`LithographySimulator` is what the OPC engines talk to: it turns a
mask (polygons or a :class:`~repro.geometry.mask_edit.MaskState`) into
aerial and printed images at every process corner, reusing optical kernels
and cached per-grid band spectra across the thousands of evaluations an
OPC run makes.

Architecture — one exact engine
-------------------------------

Kernels are *frequency-native*: for every grid shape the TCC is built
directly on that grid's DFT frequency lattice and eigendecomposed into
SOCS spectra that are exactly zero outside the pupil band (no spatial
ambit crop anywhere — see :mod:`repro.litho.kernels`).  Those band
spectra are the only kernel representation, and the pupil-band subgrid
engine is exact on them, so there is a single simulation engine with
three entry points:

* :meth:`LithographySimulator.simulate_mask` — the single-mask *spatial
  reference path*: one full-grid inverse FFT per kernel.  Slow, simple,
  and the numerical reference everything else is tested against (golden
  images in ``tests/golden/``, exactness tests in
  ``tests/test_litho_band.py``).

* :meth:`LithographySimulator.simulate_batch` — the production engine.
  It stacks B same-shape masks into a ``(B, H, W)`` array and takes one
  real-input forward FFT (``rfft2``) that *both* kernel sets share (all
  three process corners come from one forward transform).  Each set's
  imaging front end gathers its pupil band by Hermitian symmetry and
  images the stack on the compact band subgrid
  (:meth:`~repro.litho.kernels.OpticalKernelSet.subgrid_intensity`).
  Two back ends read that subgrid intensity: the defocus corner is
  resampled to the full grid by an exact real-arithmetic zero-padded
  resample (``rfft2`` -> half spectrum -> ``irfft2``) because the PV
  band needs it; the nominal corner is lifted only at the pixels of the
  caller's stencil plans (EPE metrology), and its dense aerial is
  resampled only when :attr:`LithoResult.aerial` is first read.  When
  the band covers the grid the subgrid *is* the grid and nothing is
  resampled.  Results match :meth:`simulate_mask` to FFT round-off (far
  below the 1e-9 golden tolerance) and are bit-for-bit independent of
  the batch size, so they are legal for reported EPE/PV-band metrology.

* :meth:`LithographySimulator.simulate_epe_batch` — the verifier's
  sparse sweep: the same front end, then only the pixel lift, per plan.

Array/device backend
--------------------

Every array operation and transform runs through the pluggable array
backend of :mod:`repro.backend`, selected by ``LithoConfig.backend``:
``"numpy"`` (single-threaded, the backend the committed goldens were
generated with), ``"scipy"`` (threaded via ``workers=``, ~1e-12 from
numpy — inside the 1e-9 golden tolerance but not bit-for-bit),
``"torch"`` (device execution of the band engine on ``device``; CPU
parity ~1e-12, never chosen implicitly), or ``"auto"`` (scipy with
threads on multi-core hosts when scipy is importable, numpy otherwise —
never a device backend).  Batch-vs-single-mask parity within the
batched engine is bit-for-bit under any one backend because every path
shares it, and all FFT-derived caches are keyed by backend identity and
device.

Under a device backend, :meth:`LithographySimulator.simulate_batch` and
:meth:`~LithographySimulator.simulate_epe_batch` accept host arrays *or*
device tensors and run the forward transform, band convolution and
sparse gathers on the device; the returned aerials / sparse values are
always host numpy — downstream metrology and resist thresholding are
host-side by contract, so conversion happens exactly once, at this
boundary.

Batched metrology contract
--------------------------

Downstream measurement mirrors the litho batching: one litho call is
followed by one batched metrology pass.  ``OPCEnvironment`` passes its
measure-point and control-point stencil plans to ``simulate_batch`` and
resolves EPE and segment EPE from the returned sparse aerials in one
:func:`~repro.metrology.epe.measure_epe_grouped_sparse` call, then
takes the PV band of the whole batch with
:func:`~repro.metrology.pvband.pvband_area_batch`.  The suite verifier
(:mod:`repro.service.scheduler`) pairs ``simulate_epe_batch`` with the
same grouped sparse EPE.  The dense metrology
(:func:`~repro.metrology.epe.measure_epe_batch` and friends) remains the
reference the sparse path is tested against.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.constants import (
    DEFOCUS_NM,
    DOSE_VARIATION,
    PIXEL_NM,
    RESIST_THRESHOLD,
)
from repro.errors import LithoError
from repro.geometry.layout import Clip
from repro.geometry.mask_edit import MaskState
from repro.geometry.polygon import Polygon
from repro.geometry.raster import Grid, rasterize
from repro.backend import resolve_backend
from repro.litho.kernels import (
    OpticalKernelSet,
    band_values_at_pixels,
    build_kernel_set,
)
from repro.litho.process import ProcessCorner, standard_corners
from repro.litho.resist import printed_image
from repro.litho.source import SourceSpec


@dataclass(frozen=True)
class LithoConfig:
    """Simulator settings (paper-scale defaults, all overridable)."""

    pixel_nm: float = PIXEL_NM
    threshold: float = RESIST_THRESHOLD
    defocus_nm: float = DEFOCUS_NM
    dose_variation: float = DOSE_VARIATION
    source: SourceSpec = SourceSpec()
    max_kernels: int = 12
    energy_fraction: float = 0.995
    backend: str = "auto"
    """Array/transform backend for every array op in the simulate path:
    ``"numpy"``, ``"scipy"`` (threaded transforms), ``"torch"`` (device
    execution) or ``"auto"`` (host-only; see :mod:`repro.backend`)."""
    device: str | None = None
    """Torch device (``"cpu"``, ``"cuda"``, ``"cuda:N"``); ``None``
    picks CUDA when available.  Host backends ignore it (must be
    ``None``/``"cpu"``)."""
    fft_workers: int | None = None
    """Thread count for the scipy backend; ``None`` uses every core."""
    spectra_store: str | None = None
    """Directory of the disk-persistent kernel-spectra store
    (:mod:`repro.litho.store`); ``None`` disables persistence.  A warm
    store removes the per-shape TCC build from fresh processes without
    changing any simulated value (stored spectra are bit-for-bit equal
    to an in-process build)."""

    def __post_init__(self) -> None:
        if self.pixel_nm <= 0:
            raise LithoError("pixel_nm must be positive")
        resolve_backend(self.backend, self.fft_workers, self.device)


def _read(source) -> np.ndarray:
    """An aerial held directly, or built by its zero-argument getter."""
    return source() if callable(source) else source


class LazyPrinted(Mapping):
    """Per-corner printed images, thresholded on first access.

    Most callers (EPE metrology, the PV band, the verify scheduler) read
    one or two corners at most, so each corner's
    :func:`~repro.litho.resist.printed_image` is deferred until it is
    indexed, then cached — a corner read twice returns the same array
    object, and every value is bit-for-bit identical to the eager
    construction (same function, same inputs, just later).  The nominal
    aerial itself may be lazy: reading ``"nominal"`` builds it.
    """

    __slots__ = ("_sources", "_threshold", "_cache")

    def __init__(
        self,
        aerial,
        aerial_defocus: np.ndarray,
        threshold: float,
        corners: "tuple[ProcessCorner, ProcessCorner, ProcessCorner]",
    ) -> None:
        nominal, inner, outer = corners
        self._sources = {
            "nominal": (aerial, nominal.dose),
            "inner": (aerial_defocus, inner.dose),
            "outer": (aerial_defocus, outer.dose),
        }
        self._threshold = threshold
        self._cache: dict[str, np.ndarray] = {}

    def __getitem__(self, corner: str) -> np.ndarray:
        cached = self._cache.get(corner)
        if cached is None:
            aerial, dose = self._sources[corner]
            cached = printed_image(_read(aerial), self._threshold, dose)
            self._cache[corner] = cached
        return cached

    def __iter__(self):
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)

    def __repr__(self) -> str:
        return (
            f"LazyPrinted(corners={list(self._sources)}, "
            f"materialized={sorted(self._cache)})"
        )


class LithoResult:
    """One full simulation: aerial images plus printed images per corner.

    ``aerial`` is the nominal-corner aerial.  On the batched path it is
    built on first read from the retained subgrid intensity (most
    callers need only its EPE, which comes from ``sparse``), so the
    constructor takes the array or a zero-argument getter for it.
    ``aerial_defocus`` is always dense: the PV band needs it.
    ``printed`` maps corner name to the thresholded image; on the
    batched path it is a :class:`LazyPrinted`.  ``sparse`` holds one
    nominal-corner :class:`~repro.metrology.contour.SparseAerial` per
    stencil plan passed to :meth:`LithographySimulator.simulate_batch`.
    """

    __slots__ = ("grid", "_aerial", "aerial_defocus", "printed", "sparse")

    def __init__(
        self,
        grid: Grid,
        aerial,
        aerial_defocus: np.ndarray,
        printed: Mapping[str, np.ndarray],
        sparse: tuple = (),
    ) -> None:
        self.grid = grid
        self._aerial = aerial
        self.aerial_defocus = aerial_defocus
        self.printed = printed
        self.sparse = sparse

    @property
    def aerial(self) -> np.ndarray:
        return _read(self._aerial)

    @property
    def nominal(self) -> np.ndarray:
        return self.printed["nominal"]

    @property
    def inner(self) -> np.ndarray:
        return self.printed["inner"]

    @property
    def outer(self) -> np.ndarray:
        return self.printed["outer"]


def _dense_row(kernel_set: OpticalKernelSet, intensity_sub, shape) -> np.ndarray:
    """The dense aerial of one ``(1, m0, m1)`` subgrid intensity."""
    return kernel_set.resample_intensity(intensity_sub, shape)[0]


def _lift_union(kernel_set: OpticalKernelSet, intensity_sub, shape, plans) -> list:
    """For each plan, one :class:`~repro.metrology.contour.SparseAerial`
    per mask of ``intensity_sub``; the intensity is lifted once, at the
    union of the plans' pixel sets."""
    if not plans:
        return []
    from repro.metrology.contour import SparseAerial

    cols = shape[1]
    union, inverse = np.unique(
        np.concatenate([plan.pixel_rows * cols + plan.pixel_cols for plan in plans]),
        return_inverse=True,
    )
    values = band_values_at_pixels(
        intensity_sub, kernel_set.band_spectra(shape),
        union // cols, union % cols, kernel_set.fft,
    )
    splits = np.cumsum([plan.n_pixels for plan in plans])[:-1]
    return [
        [SparseAerial(plan=plan, values=row) for row in values[:, picks]]
        for plan, picks in zip(plans, np.split(inverse, splits))
    ]


@dataclass
class LithographySimulator:
    """Reusable Hopkins/SOCS simulator for one optical configuration."""

    config: LithoConfig = field(default_factory=LithoConfig)
    _kernel_sets: dict[float, OpticalKernelSet] = field(
        default_factory=dict, repr=False
    )
    _spectra_store: object | None = field(default=None, repr=False)
    _init_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    def spectra_store(self):
        """The configured kernel-spectra store (one per simulator), or
        ``None`` when persistence is disabled."""
        with self._init_lock:
            if self._spectra_store is None and self.config.spectra_store:
                from repro.litho.store import open_store

                self._spectra_store = open_store(self.config.spectra_store)
            return self._spectra_store

    def kernel_set(self, defocus_nm: float = 0.0) -> OpticalKernelSet:
        """Kernels for one focus condition (built once, then cached).

        Lazy init is locked: callers may share one simulator across
        threads, and a concurrent first call must not build (and then
        discard) the set twice."""
        if defocus_nm in self._kernel_sets:
            return self._kernel_sets[defocus_nm]
        cfg = self.config
        store = self.spectra_store()
        with self._init_lock:
            if defocus_nm not in self._kernel_sets:
                self._kernel_sets[defocus_nm] = build_kernel_set(
                    pixel_nm=cfg.pixel_nm,
                    defocus_nm=defocus_nm,
                    source=cfg.source,
                    max_kernels=cfg.max_kernels,
                    energy_fraction=cfg.energy_fraction,
                    backend=cfg.backend,
                    fft_workers=cfg.fft_workers,
                    device=cfg.device,
                    spectra_store=store,
                )
            return self._kernel_sets[defocus_nm]

    def corners(self) -> tuple[ProcessCorner, ProcessCorner, ProcessCorner]:
        return standard_corners(self.config.defocus_nm, self.config.dose_variation)

    # -- grid / raster helpers ----------------------------------------------
    def grid_for(self, clip: Clip) -> Grid:
        return Grid.for_window(clip.bbox, self.config.pixel_nm)

    def rasterize_mask(
        self, polygons: Iterable[Polygon], grid: Grid
    ) -> np.ndarray:
        return rasterize(polygons, grid)

    # -- simulation -----------------------------------------------------------
    def aerial(self, mask: np.ndarray, defocus_nm: float = 0.0) -> np.ndarray:
        """Aerial intensity of a rasterized mask at one focus setting
        (spatial reference path)."""
        return self.kernel_set(defocus_nm).convolve_intensity(mask)

    def simulate_mask(self, mask: np.ndarray, grid: Grid) -> LithoResult:
        """Full corner sweep for a rasterized mask (reference path)."""
        nominal, inner, outer = self.corners()
        aerial_focus = self.aerial(mask, defocus_nm=nominal.defocus_nm)
        aerial_defocus = self.aerial(mask, defocus_nm=inner.defocus_nm)
        printed = {
            "nominal": printed_image(
                aerial_focus, self.config.threshold, nominal.dose
            ),
            "inner": printed_image(aerial_defocus, self.config.threshold, inner.dose),
            "outer": printed_image(aerial_defocus, self.config.threshold, outer.dose),
        }
        return LithoResult(
            grid=grid,
            aerial=aerial_focus,
            aerial_defocus=aerial_defocus,
            printed=printed,
        )

    def _mask_stack(self, masks, grid: Grid):
        """``masks`` as a validated backend-native ``(B, H, W)`` stack on
        ``grid`` (a device tensor stays on its device)."""
        if hasattr(masks, "ndim"):
            stack = masks
        else:
            items = list(masks)
            if not items:
                raise LithoError("mask batch is empty")
            try:
                stack = np.stack(items)
            except ValueError as exc:
                raise LithoError(
                    f"masks in a batch must share one shape: {exc}"
                ) from None
        focus_set = self.kernel_set(self.corners()[0].defocus_nm)
        stack = focus_set.validate_mask_batch(stack)
        if stack.shape[1:] != grid.shape:
            raise LithoError(
                f"mask batch shape {stack.shape[1:]} does not match grid "
                f"{grid.shape}"
            )
        return stack

    @staticmethod
    def _check_plan_grids(plans, grid: Grid) -> None:
        for plan in plans:
            if plan is not None and plan.grid.shape != grid.shape:
                raise LithoError(
                    f"stencil plan grid {plan.grid.shape} does not match "
                    f"the mask grid {grid.shape}"
                )

    def simulate_batch(
        self,
        masks: Sequence[np.ndarray] | np.ndarray,
        grid: Grid,
        plans: Sequence = (),
    ) -> list[LithoResult]:
        """Full corner sweep for a stack of same-shape rasterized masks.

        ``masks`` is a ``(B, H, W)`` array or a sequence of B ``(H, W)``
        masks on ``grid``.  One real-input forward FFT feeds the imaging
        front end of both the focus and defocus kernel sets.  The defocus
        corner is resampled to the full grid here (the PV band needs
        it); the nominal aerial is resampled only when
        :attr:`LithoResult.aerial` is first read.  Results match
        :meth:`simulate_mask` to FFT round-off and are bit-for-bit
        independent of the batch size.

        ``plans`` are :class:`~repro.metrology.contour.ContourStencilPlan`
        s shared by every mask (an OPC environment's measure and control
        points).  The nominal intensity is lifted once at the union of
        their pixel sets, and ``LithoResult.sparse`` holds one
        :class:`~repro.metrology.contour.SparseAerial` per plan — EPE
        without any dense nominal image.

        Under a device backend ``masks`` may already be a device tensor
        (``(B, H, W)``); host input is moved to the device once, and the
        returned aerials are host numpy either way.
        """
        stack = self._mask_stack(masks, grid)
        self._check_plan_grids(plans, grid)
        nominal, inner, outer = self.corners()
        focus_set = self.kernel_set(nominal.defocus_nm)
        defocus_set = self.kernel_set(inner.defocus_nm)
        shape = grid.shape
        spectra = focus_set.fft.rfft2(stack, axes=(-2, -1))
        focus_sub = focus_set.subgrid_intensity(spectra, shape)
        aerial_defocus = defocus_set.resample_intensity(
            defocus_set.subgrid_intensity(spectra, shape), shape
        )
        per_plan = _lift_union(focus_set, focus_sub, shape, plans)
        threshold = self.config.threshold
        corners = (nominal, inner, outer)
        results = []
        for index, defocus_b in enumerate(aerial_defocus):
            aerial = functools.cache(functools.partial(
                _dense_row, focus_set, focus_sub[index : index + 1], shape
            ))
            results.append(LithoResult(
                grid=grid,
                aerial=aerial,
                aerial_defocus=defocus_b,
                printed=LazyPrinted(aerial, defocus_b, threshold, corners),
                sparse=tuple(aerials[index] for aerials in per_plan),
            ))
        return results

    def simulate_epe_batch(
        self,
        masks: Sequence[np.ndarray] | np.ndarray,
        grid: Grid,
        plans,
        with_defocus: bool = False,
    ) -> list:
        """Sparse corner sweep: intensity only where EPE metrology looks.

        The EPE-only companion of :meth:`simulate_batch` for
        verification and screening: ``plans`` is one
        :class:`~repro.metrology.contour.ContourStencilPlan` shared by
        every mask (candidate screening) or a per-mask sequence
        (shape-binned verification, where same-shape clips differ in
        geometry; ``None`` entries mean "no measure points").  Returns
        one :class:`~repro.metrology.contour.SparseAerial` per mask
        (``None`` where the plan was), holding the nominal-corner
        intensity at the plan's pixel set — and the defocus corner too
        when ``with_defocus`` is set (EPE itself is measured at the
        nominal corner only, so the default skips that work).

        No dense image is built: the shared imaging front end images
        the whole stack once per kernel set on the pupil-band subgrid,
        and each plan's pixel set is lifted from it by the lattice
        gather (:func:`~repro.litho.kernels.band_values_at_pixels`).
        Values agree with the dense :meth:`simulate_batch` aerials at
        the same pixels to <= 1e-12 absolute intensity — resolved EPE
        offsets agree to <= 1e-9 nm.  On a grid whose pupil band is not
        compact the subgrid is the grid, and the lift is a plain gather
        from the very array the dense aerial is.

        Like :meth:`simulate_batch`, ``masks`` may be a device tensor
        under a device backend; the sparse values in each returned
        :class:`~repro.metrology.contour.SparseAerial` are host numpy.
        """
        stack = self._mask_stack(masks, grid)
        nominal, inner, _ = self.corners()
        batch = stack.shape[0]
        if plans is None or not isinstance(plans, (list, tuple)):
            plan_list = [plans] * batch
        else:
            plan_list = list(plans)
            if len(plan_list) != batch:
                raise LithoError(
                    f"got {len(plan_list)} stencil plans for {batch} masks"
                )
        self._check_plan_grids(plan_list, grid)
        results: list = [None] * batch
        groups: dict[int, tuple] = {}
        for index, plan in enumerate(plan_list):
            if plan is None or not plan.n_points:
                continue
            groups.setdefault(id(plan), (plan, []))[1].append(index)
        if not groups:
            return results

        shape = grid.shape
        kernel_sets = [self.kernel_set(nominal.defocus_nm)] + (
            [self.kernel_set(inner.defocus_nm)] if with_defocus else []
        )
        # Each kernel set images the whole stack once; only the pixel
        # lift runs per plan.
        spectra = kernel_sets[0].fft.rfft2(stack, axes=(-2, -1))
        intensities = [
            kset.subgrid_intensity(spectra, shape) for kset in kernel_sets
        ]
        from repro.metrology.contour import SparseAerial

        for plan, indices in groups.values():
            values = [
                band_values_at_pixels(
                    intensity[indices], kset.band_spectra(shape),
                    plan.pixel_rows, plan.pixel_cols, kset.fft,
                )
                for kset, intensity in zip(kernel_sets, intensities)
            ]
            for row, index in enumerate(indices):
                results[index] = SparseAerial(
                    plan=plan,
                    values=values[0][row],
                    values_defocus=values[1][row] if with_defocus else None,
                )
        return results

    def simulate_polygons(
        self, polygons: Iterable[Polygon], grid: Grid
    ) -> LithoResult:
        """Rasterize + simulate through the batched engine (B = 1).

        Matches :meth:`simulate_mask` to FFT round-off while all three
        corners share one forward FFT on the compact band subgrid.  (The
        OPC engines step through ``OPCEnvironment``, which calls
        :meth:`simulate_batch` with its stencil plans.)
        """
        mask = self.rasterize_mask(polygons, grid)
        return self.simulate_batch(mask[None], grid)[0]

    def simulate_state(self, state: MaskState, grid: Grid | None = None) -> LithoResult:
        """Simulate the current mask of an OPC state."""
        if grid is None:
            grid = self.grid_for(state.clip)
        return self.simulate_polygons(state.mask_polygons(), grid)

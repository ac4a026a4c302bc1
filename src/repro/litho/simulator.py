"""Lithography simulator facade.

:class:`LithographySimulator` is what the OPC engines talk to: it turns a
mask (polygons or a raster) into
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
  It takes B same-grid masks and derives their pupil bands once for
  *both* kernel sets (all three process corners share one band).  The
  band source depends on the input kind: polygon sets
  (:meth:`simulate_polygons`) and the OPC environment's cached slabs
  take it straight from their slabs' closed-form interval DFTs
  (:mod:`repro.litho.polygon_band`, no raster and no full-grid FFT);
  rasterized masks take the row ``rfft`` and a column ``fft`` of the
  band's columns only, then the Hermitian band gather
  (:func:`~repro.litho.kernels.raster_band`).  Each set's imaging front
  end then images the band on the compact subgrid, all kernels in one
  ``(B, K, m0, m1)`` array whose row pass runs on the band rows only
  (:meth:`~repro.litho.kernels.OpticalKernelSet.image_band`).
  Two back ends read that subgrid intensity: the nominal corner is
  lifted only at the pixels of the caller's stencil plans (EPE
  metrology; :class:`NominalLift` plans that lift once for callers
  whose plans never change); a dense aerial is rebuilt by an exact
  real-arithmetic zero-padded resample (``rfft2`` -> half spectrum ->
  ``irfft2``, whose column pass runs on the band's columns only) only
  when it is read.  The defocus corner, which feeds
  nothing but the PV band, is not even imaged until a row's
  :attr:`LithoResult.aerial_defocus` (or its printed ``inner`` /
  ``outer`` image) is first read; that read images the whole batch
  once and resamples that row only.  When the band covers the grid the
  subgrid *is* the grid and nothing is resampled.  Results match
  :meth:`simulate_mask` to FFT round-off (far below the 1e-9 golden
  tolerance) and are bit-for-bit independent of the batch size, so
  they are legal for reported EPE/PV-band metrology.

* :meth:`LithographySimulator.simulate_epe_batch` — the verifier's
  sparse sweep on rasterized masks: one mask at a time, raster, its
  band (:func:`~repro.litho.kernels.raster_band`) and the same front
  end, keeping only the subgrid intensity; then only the pixel lift,
  per plan.  Because the verifier rasterizes, it stays an independent
  cross-check of the polygon band source.

Array backend
-------------

Every array operation is numpy and every transform is ``np.fft``, so a
table's numbers are bit-for-bit the same on any host, whatever its core
count or installed libraries.  ``LithoConfig(backend=...)`` accepts
only ``"numpy"``.

Batched metrology contract
--------------------------

Downstream measurement mirrors the litho batching: one litho call is
followed by one batched metrology pass.  ``OPCEnvironment`` passes its
measure-point and control-point stencil plans to ``simulate_batch`` and
resolves EPE and segment EPE from the returned sparse aerials in one
:func:`~repro.metrology.epe.measure_epe_grouped_sparse` call; a state's
PV band (:func:`~repro.metrology.pvband.pvband_area_batch`) is taken
only when it is first read.  The suite verifier
(:mod:`repro.service.scheduler`) pairs ``simulate_epe_batch`` with the
same grouped sparse EPE.  A dense aerial is measured through the same
stencil plans: :func:`~repro.metrology.epe.measure_epe` and friends
gather the plan's pixels from it, so dense and sparse EPE differ only
by the band engine's intensity round-off.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
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
from repro.geometry.polygon import Polygon
from repro.geometry.raster import (
    Grid,
    Slabs,
    rasterize,
)
from repro.litho.kernels import (
    OpticalKernelSet,
    PixelLift,
    band_values_at_pixels,
    build_kernel_set,
    raster_band,
)
from repro.litho.polygon_band import polygon_band_subgrid
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
    backend: InitVar[str] = "numpy"
    """Array backend of the simulate path, checked at construction and
    not stored: ``"numpy"`` is the only one."""
    spectra_store: str | None = None
    """Directory of the disk-persistent kernel-spectra store
    (:mod:`repro.litho.store`); ``None`` disables persistence.  A warm
    store removes the per-shape TCC build from fresh processes without
    changing any simulated value (stored spectra are bit-for-bit equal
    to an in-process build)."""

    def __post_init__(self, backend: str) -> None:
        if self.pixel_nm <= 0:
            raise LithoError("pixel_nm must be positive")
        if backend != "numpy":
            raise LithoError(
                f"unknown array backend {backend!r}; numpy is the only one"
            )


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
    construction (same function, same inputs, just later).  Either
    aerial itself may be lazy: reading ``"nominal"`` builds the nominal
    one, reading ``"inner"`` or ``"outer"`` the defocus one.
    """

    __slots__ = ("_sources", "_threshold", "_cache")

    def __init__(
        self,
        aerial,
        aerial_defocus,
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

    ``aerial`` is the nominal-corner aerial and ``aerial_defocus`` the
    defocus corner's.  On the batched path each is built on first read
    (most callers need only the nominal EPE, which comes from
    ``sparse``, and the defocus corner feeds nothing but the PV band),
    so the constructor takes each as an array or a zero-argument getter.
    ``printed`` maps corner name to the thresholded image; on the
    batched path it is a :class:`LazyPrinted`.  ``sparse`` holds one
    nominal-corner :class:`~repro.metrology.contour.SparseAerial` per
    stencil plan passed to :meth:`LithographySimulator.simulate_batch`.
    """

    __slots__ = ("grid", "_aerial", "_aerial_defocus", "printed", "sparse")

    def __init__(
        self,
        grid: Grid,
        aerial,
        aerial_defocus,
        printed: Mapping[str, np.ndarray],
        sparse: tuple = (),
    ) -> None:
        self.grid = grid
        self._aerial = aerial
        self._aerial_defocus = aerial_defocus
        self.printed = printed
        self.sparse = sparse

    @property
    def aerial(self) -> np.ndarray:
        return _read(self._aerial)

    @property
    def aerial_defocus(self) -> np.ndarray:
        return _read(self._aerial_defocus)

    @property
    def nominal(self) -> np.ndarray:
        return self.printed["nominal"]

    @property
    def inner(self) -> np.ndarray:
        return self.printed["inner"]

    @property
    def outer(self) -> np.ndarray:
        return self.printed["outer"]


def _dense_row(kernel_set: OpticalKernelSet, intensity_sub, index: int, shape):
    """The dense aerial of row ``index`` of a ``(B, m0, m1)`` subgrid
    intensity, held directly or built by its zero-argument getter."""
    return kernel_set.resample_intensity(
        _read(intensity_sub)[index : index + 1], shape
    )[0]


def _check_plan_grids(plans, grid: Grid) -> None:
    for plan in plans:
        if plan is not None and plan.grid.shape != grid.shape:
            raise LithoError(
                f"stencil plan grid {plan.grid.shape} does not match "
                f"the mask grid {grid.shape}"
            )


class NominalLift:
    """The nominal corner's pixel lift for a fixed tuple of stencil plans.

    The intensity is lifted once, at the union of the plans' pixel sets,
    and split back per plan.  The union, each plan's positions in it and
    the union's :class:`~repro.litho.kernels.PixelLift` (lattice and
    phases) depend on the plans alone, so they are planned here once.
    A caller that passes the same plans on every call (an OPC
    environment) builds one with :meth:`LithographySimulator.nominal_lift`
    and hands it to :meth:`LithographySimulator.simulate_batch` in place
    of the plans; lifted values are bit-for-bit those of a per-call plan.
    """

    __slots__ = ("kernel_set", "grid", "plans", "_lift", "_picks")

    def __init__(
        self, kernel_set: OpticalKernelSet, grid: Grid, plans: Sequence
    ) -> None:
        self.kernel_set = kernel_set
        self.grid = grid
        self.plans = tuple(plans)
        _check_plan_grids(self.plans, grid)
        self._lift = None
        self._picks: list = []
        if not self.plans:
            return
        cols = grid.cols
        union, inverse = np.unique(
            np.concatenate([
                plan.pixel_rows * cols + plan.pixel_cols for plan in self.plans
            ]),
            return_inverse=True,
        )
        self._lift = PixelLift(
            kernel_set.band_spectra(grid.shape), union // cols, union % cols
        )
        splits = np.cumsum([plan.n_pixels for plan in self.plans])[:-1]
        self._picks = np.split(inverse, splits)

    def __call__(self, intensity_sub) -> list:
        """For each plan, one :class:`~repro.metrology.contour.SparseAerial`
        per mask of the ``(B, m0, m1)`` nominal subgrid intensity."""
        if self._lift is None:
            return []
        from repro.metrology.contour import SparseAerial

        values = self._lift(intensity_sub)
        return [
            [SparseAerial(plan=plan, values=row) for row in values[:, picks]]
            for plan, picks in zip(self.plans, self._picks)
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
                    spectra_store=store,
                )
            return self._kernel_sets[defocus_nm]

    def corners(self) -> tuple[ProcessCorner, ProcessCorner, ProcessCorner]:
        return standard_corners(self.config.defocus_nm, self.config.dose_variation)

    # -- grid / raster helpers ----------------------------------------------
    def grid_for(self, clip: Clip) -> Grid:
        return Grid.for_window(clip.bbox, self.config.pixel_nm)

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
        """``masks`` as a validated float64 ``(B, H, W)`` stack on
        ``grid``."""
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

    def nominal_lift(self, grid: Grid, plans: Sequence) -> NominalLift:
        """Plan the nominal lift of fixed stencil plans on ``grid`` once,
        for :meth:`simulate_batch` calls that all pass the same plans."""
        return NominalLift(
            self.kernel_set(self.corners()[0].defocus_nm), grid, plans
        )

    def _band_source(self, masks, grid: Grid):
        """``band -> (B, m0, m1)`` pupil-band spectra of ``masks``.

        One band source per input kind.  Rasterized masks take the row
        ``rfft`` of the stack, the column ``fft`` of the band's columns
        and the Hermitian band gather
        (:func:`~repro.litho.kernels.raster_band`).  Polygon sets
        and :class:`~repro.geometry.raster.Slabs` take the analytic band
        of their slabs
        (:func:`~repro.litho.polygon_band.polygon_band_subgrid`): no
        raster and no full-grid FFT.  A polygon set is decomposed here
        and must be mutually disjoint (:func:`_require_disjoint`); slabs
        are taken as given.  Each band layout is computed once, so the
        focus and defocus sets, which share one, share it.
        """
        if not hasattr(masks, "ndim"):
            masks = list(masks)
            if not masks:
                raise LithoError("mask batch is empty")
        if hasattr(masks, "ndim") or hasattr(masks[0], "ndim"):
            stack = self._mask_stack(masks, grid)

            def source(band):
                return raster_band(stack, band)
        else:
            slab_sets = [
                mask if isinstance(mask, Slabs)
                else _require_disjoint(Slabs.of(mask))
                for mask in masks
            ]

            def source(band):
                return polygon_band_subgrid(slab_sets, grid, band)

        computed: dict = {}

        def mask_band(band):
            key = (band.band, band.subgrid)
            if key not in computed:
                computed[key] = source(band)
            return computed[key]

        return mask_band

    def simulate_batch(
        self,
        masks: "np.ndarray | Sequence[np.ndarray] | Sequence[Iterable[Polygon] | Slabs]",
        grid: Grid,
        plans: "Sequence | NominalLift" = (),
    ) -> list[LithoResult]:
        """Full corner sweep for a batch of same-grid masks.

        ``masks`` is rasterized — a ``(B, H, W)`` array or a sequence of
        B ``(H, W)`` masks on ``grid`` — or a sequence of B polygon sets
        (each a collection of mutually disjoint rectilinear polygons,
        else :class:`~repro.errors.LithoError`) or their
        :class:`~repro.geometry.raster.Slabs`.
        Rasterized masks take a row ``rfft`` and a column ``fft`` of
        the band's columns only; polygon sets
        and slabs take their pupil band straight from the geometry
        (:mod:`repro.litho.polygon_band`), equal to rasterizing them to
        float round-off.  Either band feeds the imaging front end of
        both the focus and defocus kernel sets.  The focus corner is
        imaged here; the defocus corner is imaged, for the whole batch
        at once, when the first row's ``aerial_defocus`` (or its
        ``inner`` / ``outer`` printed image) is read.  Each dense aerial
        — nominal or defocus — is resampled per row, on its first read.
        Results match :meth:`simulate_mask` to FFT round-off and are
        bit-for-bit independent of the batch size.

        ``plans`` are :class:`~repro.metrology.contour.ContourStencilPlan`
        s shared by every mask (an OPC environment's measure and control
        points), or their :class:`NominalLift` from :meth:`nominal_lift`.
        The nominal intensity is lifted once at the union of their pixel
        sets, and ``LithoResult.sparse`` holds one
        :class:`~repro.metrology.contour.SparseAerial` per plan — EPE
        without any dense nominal image.
        """
        nominal, inner, outer = self.corners()
        focus_set = self.kernel_set(nominal.defocus_nm)
        defocus_set = self.kernel_set(inner.defocus_nm)
        mask_band = self._band_source(masks, grid)
        lift = (
            plans if isinstance(plans, NominalLift)
            else NominalLift(focus_set, grid, plans)
        )
        if lift.grid.shape != grid.shape:
            raise LithoError(
                f"nominal lift grid {lift.grid.shape} does not match the "
                f"mask grid {grid.shape}"
            )
        shape = grid.shape
        focus_band = focus_set.band_spectra(shape)
        defocus_band = defocus_set.band_spectra(shape)
        focus_sub = focus_set.image_band(mask_band(focus_band), focus_band)
        # The defocus corner feeds only the PV band: the first read of
        # any row's defocus aerial images the whole batch.
        defocus_sub = functools.cache(functools.partial(
            defocus_set.image_band, mask_band(defocus_band), defocus_band
        ))
        per_plan = lift(focus_sub)
        threshold = self.config.threshold
        corners = (nominal, inner, outer)
        results = []
        for index in range(len(focus_sub)):
            aerial = functools.cache(functools.partial(
                _dense_row, focus_set, focus_sub, index, shape
            ))
            aerial_defocus = functools.cache(functools.partial(
                _dense_row, defocus_set, defocus_sub, index, shape
            ))
            results.append(LithoResult(
                grid=grid,
                aerial=aerial,
                aerial_defocus=aerial_defocus,
                printed=LazyPrinted(aerial, aerial_defocus, threshold, corners),
                sparse=tuple(aerials[index] for aerials in per_plan),
            ))
        return results

    def simulate_epe_batch(
        self,
        masks: "np.ndarray | Sequence[np.ndarray | Iterable[Polygon]]",
        grid: Grid,
        plans,
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
        intensity at the plan's pixel set (EPE is measured at the
        nominal corner only).

        ``masks`` is a ``(B, H, W)`` raster stack or a sequence of B
        masks, each an ``(H, W)`` raster or a polygon set that is
        rasterized on ``grid`` here.  Masks are taken one at a time
        through the imaging front end for rasters
        (:meth:`~repro.litho.kernels.OpticalKernelSet.subgrid_intensity`:
        :func:`~repro.litho.kernels.raster_band` of that one mask, then
        the image on the pupil-band subgrid), and only its subgrid
        intensity is kept, so a sequence never holds more than one
        full-grid raster and its row ``rfft``, and the K kernel fields
        of one mask.  Each
        plan's pixel set is then lifted from the stacked intensities by
        the lattice gather
        (:func:`~repro.litho.kernels.band_values_at_pixels`).  A mask
        whose plan is ``None`` is validated but not imaged.  Values are
        bit-for-bit those of one call per mask, and agree with the
        dense :meth:`simulate_batch` aerials at the same pixels to
        <= 1e-12 absolute intensity — resolved EPE offsets agree to
        <= 1e-9 nm.  On a grid whose pupil band is not compact the
        subgrid is the grid, and the lift is a plain gather from the
        very array the dense aerial is.
        """
        kset = self.kernel_set(self.corners()[0].defocus_nm)
        if hasattr(masks, "ndim"):
            masks = kset.validate_mask_batch(masks)
        else:
            masks = list(masks)
            if not masks:
                raise LithoError("mask batch is empty")
        batch = len(masks)
        if plans is None or not isinstance(plans, (list, tuple)):
            plan_list = [plans] * batch
        else:
            plan_list = list(plans)
            if len(plan_list) != batch:
                raise LithoError(
                    f"got {len(plan_list)} stencil plans for {batch} masks"
                )
        _check_plan_grids(plan_list, grid)
        shape = grid.shape
        # One entry per imaged mask: its subgrid intensity and its batch
        # index; each plan groups the imaged rows it measures.
        imaged, owners = [], []
        groups: dict[int, tuple] = {}
        for index, (mask, plan) in enumerate(zip(masks, plan_list)):
            if not hasattr(mask, "ndim"):
                mask = rasterize(mask, grid)
            row = kset.validate_mask_batch(mask[None])
            if row.shape[1:] != shape:
                raise LithoError(
                    f"mask {index} shape {tuple(row.shape[1:])} does not "
                    f"match grid {shape}"
                )
            if plan is None or not plan.n_points:
                continue
            groups.setdefault(id(plan), (plan, []))[1].append(len(imaged))
            imaged.append(kset.subgrid_intensity(row))
            owners.append(index)
        results: list = [None] * batch
        if not imaged:
            return results
        intensity = np.concatenate(imaged)
        band = kset.band_spectra(shape)
        from repro.metrology.contour import SparseAerial

        for plan, rows in groups.values():
            values = band_values_at_pixels(
                intensity[rows], band, plan.pixel_rows, plan.pixel_cols
            )
            for row, row_values in zip(rows, values):
                results[owners[row]] = SparseAerial(plan=plan, values=row_values)
        return results

    def simulate_polygons(
        self, polygons: Iterable[Polygon], grid: Grid
    ) -> LithoResult:
        """Simulate one polygon set through the batched engine (B = 1).

        The pupil band comes straight from the polygons, with no raster
        and no full-grid FFT; the result matches :meth:`simulate_mask`
        of the rasterized polygons to FFT round-off.  (The OPC engines
        step through ``OPCEnvironment``, which calls
        :meth:`simulate_batch` with its mask states' slabs and its
        planned nominal lift.)

        Raises:
            LithoError: two of the polygons overlap with positive area.
                The band sums polygons, where :func:`rasterize` clips
                coverage at 1, so an overlap would be counted twice.
        """
        return self.simulate_batch([tuple(polygons)], grid)[0]


def _require_disjoint(slabs: Slabs) -> Slabs:
    """``slabs``, after an exact test of every pair of them: raise
    :class:`LithoError` if two polygons overlap with positive area."""
    owner = slabs.owner[:, None]
    x_lo, x_hi, y_lo, y_hi = (column[:, None] for column in slabs.bounds.T)
    overlap = (
        (owner < owner.T)
        & (np.maximum(x_lo, x_lo.T) < np.minimum(x_hi, x_hi.T))
        & (np.maximum(y_lo, y_lo.T) < np.minimum(y_hi, y_hi.T))
    )
    if overlap.any():
        i, j = np.argwhere(overlap)[0]
        raise LithoError(
            f"polygons {int(slabs.owner[i])} and {int(slabs.owner[j])} "
            "overlap; polygon input must be mutually disjoint"
        )
    return slabs

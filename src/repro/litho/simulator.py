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
engine is exact on them, so there is a single simulation engine with two
entry points:

* :meth:`LithographySimulator.simulate_mask` — the single-mask *spatial
  reference path*: one full-grid inverse FFT per kernel.  Slow, simple,
  and the numerical reference everything else is tested against (golden
  images in ``tests/golden/``, exactness tests in
  ``tests/test_litho_band.py``).

* :meth:`LithographySimulator.simulate_batch` — the production engine.
  It stacks B same-shape masks into a ``(B, H, W)`` array, computes a
  single vectorized forward FFT, *shares those mask spectra across the
  focus and defocus kernel sets* (all three process corners come from
  one forward transform), and runs the per-kernel inverse FFTs on the
  pupil-band subgrid with one exact zero-padded FFT resample of the
  intensity per corner (none when the band covers the grid, where the
  subgrid is the grid).  Results match :meth:`simulate_mask` to FFT
  round-off (far below the 1e-9 golden tolerance) and are bit-for-bit
  independent of the batch size, so they are legal for reported
  EPE/PV-band metrology.  ``benchmarks/bench_batch_litho.py`` gates
  >= 3x over the per-mask reference loop at B=8.

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

Downstream measurement mirrors the litho batching: one
``simulate_batch`` call is followed by one batched metrology call.
:func:`repro.metrology.epe.measure_epe_batch` /
:func:`~repro.metrology.epe.segment_epe_batch` resolve every ``(B,
n_points)`` contour profile in a single vectorized pass and are
bit-for-bit equal to mapping :func:`~repro.metrology.epe.measure_epe` /
:func:`~repro.metrology.epe.segment_epe` over the batch;
:func:`~repro.metrology.pvband.pvband_area_batch` does the same for PV
bands.  ``OPCEnvironment.evaluate_batch`` / ``step_batch``, population
RL training, and the suite verifier (:mod:`repro.eval.runner`) all
follow this two-call pattern.
"""

from __future__ import annotations

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


class LazyPrinted(Mapping):
    """Per-corner printed images, thresholded on first access.

    ``simulate_batch`` used to materialize three full-grid thresholded
    images per mask eagerly; most callers (EPE metrology, the verify
    scheduler) only ever read ``aerial``.  This mapping defers each
    corner's :func:`~repro.litho.resist.printed_image` until it is
    actually indexed, then caches it — a corner read twice returns the
    same array object, and every value is bit-for-bit identical to the
    eager construction (same function, same inputs, just later).
    """

    __slots__ = ("_sources", "_threshold", "_cache")

    def __init__(
        self,
        aerial: np.ndarray,
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
            cached = printed_image(aerial, self._threshold, dose)
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


@dataclass
class LithoResult:
    """One full simulation: aerial image plus printed images per corner.

    ``printed`` maps corner name to the thresholded image; on the
    batched path it is a :class:`LazyPrinted` that computes each corner
    on first access (identical values, deferred cost), while the
    single-mask reference path keeps an eager dict.
    """

    grid: Grid
    aerial: np.ndarray
    aerial_defocus: np.ndarray
    printed: Mapping[str, np.ndarray]

    @property
    def nominal(self) -> np.ndarray:
        return self.printed["nominal"]

    @property
    def inner(self) -> np.ndarray:
        return self.printed["inner"]

    @property
    def outer(self) -> np.ndarray:
        return self.printed["outer"]


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

    def simulate_batch(
        self,
        masks: Sequence[np.ndarray] | np.ndarray,
        grid: Grid,
    ) -> list[LithoResult]:
        """Full corner sweep for a stack of same-shape rasterized masks.

        ``masks`` is a ``(B, H, W)`` array or a sequence of B ``(H, W)``
        masks on ``grid``.  One shared forward FFT feeds both the focus
        and defocus kernel sets, so all three process corners come from a
        single batched transform pipeline running the exact pupil-band
        subgrid engine.  Results match :meth:`simulate_mask` to FFT
        round-off and are bit-for-bit independent of the batch size.

        Under a device backend ``masks`` may already be a device tensor
        (``(B, H, W)``); host input is moved to the device once, and the
        returned aerials are host numpy either way.
        """
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
        nominal, inner, outer = self.corners()
        focus_set = self.kernel_set(nominal.defocus_nm)
        defocus_set = self.kernel_set(inner.defocus_nm)
        stack = focus_set.validate_mask_batch(stack)
        if stack.shape[1:] != grid.shape:
            raise LithoError(
                f"mask batch shape {stack.shape[1:]} does not match grid "
                f"{grid.shape}"
            )
        mask_ffts = focus_set.fft.fft2(stack, axes=(-2, -1))
        aerial_focus = focus_set.intensity_from_mask_ffts(mask_ffts)
        aerial_defocus = defocus_set.intensity_from_mask_ffts(mask_ffts)
        threshold = self.config.threshold
        corners = (nominal, inner, outer)
        results = []
        for focus_b, defocus_b in zip(aerial_focus, aerial_defocus):
            results.append(
                LithoResult(
                    grid=grid,
                    aerial=focus_b,
                    aerial_defocus=defocus_b,
                    printed=LazyPrinted(focus_b, defocus_b, threshold, corners),
                )
            )
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

        Neither ``printed_image`` nor any full-grid inverse FFT is
        constructed: the stack is forward-transformed once with the
        half-width real-input FFT, each kernel set gathers its pupil
        band from it by Hermitian symmetry and images the whole stack
        once on the alias-free subgrid, and each plan's pixel set is
        lifted from that subgrid intensity by the lattice gather
        (:func:`~repro.litho.kernels.band_values_at_pixels`).  Values
        agree with gathering the dense :meth:`simulate_batch` aerials at
        the same pixels to <= 1e-12 absolute intensity — resolved EPE
        offsets agree to <= 1e-9 nm.  Grids whose pupil band is not
        compact take the full spectrum and gather from the dense
        intensity, which is exact.

        Like :meth:`simulate_batch`, ``masks`` may be a device tensor
        under a device backend; the sparse values in each returned
        :class:`~repro.metrology.contour.SparseAerial` are host numpy.
        """
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
        nominal, inner, _ = self.corners()
        focus_set = self.kernel_set(nominal.defocus_nm)
        stack = focus_set.validate_mask_batch(stack)
        if stack.shape[1:] != grid.shape:
            raise LithoError(
                f"mask batch shape {stack.shape[1:]} does not match grid "
                f"{grid.shape}"
            )
        batch = stack.shape[0]
        if plans is None or not isinstance(plans, (list, tuple)):
            plan_list = [plans] * batch
        else:
            plan_list = list(plans)
            if len(plan_list) != batch:
                raise LithoError(
                    f"got {len(plan_list)} stencil plans for {batch} masks"
                )
        for plan in plan_list:
            if plan is not None and plan.grid.shape != grid.shape:
                raise LithoError(
                    f"stencil plan grid {plan.grid.shape} does not match "
                    f"the mask grid {grid.shape}"
                )
        results: list = [None] * batch
        groups: dict[int, tuple] = {}
        for index, plan in enumerate(plan_list):
            if plan is None or not plan.n_points:
                continue
            groups.setdefault(id(plan), (plan, []))[1].append(index)
        if not groups:
            return results

        shape = grid.shape
        kernel_sets = [focus_set] + (
            [self.kernel_set(inner.defocus_nm)] if with_defocus else []
        )
        compact = all(
            kset.band_spectra(shape).compact for kset in kernel_sets
        )
        # Each kernel set images the whole stack once; only the pixel
        # lift runs per plan.
        if compact:
            spectra = focus_set.fft.rfft2(stack, axes=(-2, -1))
            intensities = [
                kset.subgrid_intensity_from_rfft(spectra, shape)
                for kset in kernel_sets
            ]
        else:
            spectra = focus_set.fft.fft2(stack, axes=(-2, -1))
            intensities = [
                kset.intensity_from_mask_ffts(spectra) for kset in kernel_sets
            ]

        def lift(kset, intensity, plan):
            rows, cols = plan.pixel_rows, plan.pixel_cols
            if not compact:
                return intensity[:, rows, cols]
            return band_values_at_pixels(
                intensity, kset.band_spectra(shape), rows, cols, kset.fft
            )

        from repro.metrology.contour import SparseAerial

        for plan, indices in groups.values():
            values = [
                lift(kset, intensity[indices], plan)
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
        corners share one forward FFT on the compact band subgrid — this
        is the per-iteration corner sweep used by every OPC engine via
        :meth:`simulate_state`.
        """
        mask = self.rasterize_mask(polygons, grid)
        return self.simulate_batch(mask[None], grid)[0]

    def simulate_state(self, state: MaskState, grid: Grid | None = None) -> LithoResult:
        """Simulate the current mask of an OPC state."""
        if grid is None:
            grid = self.grid_for(state.clip)
        return self.simulate_polygons(state.mask_polygons(), grid)

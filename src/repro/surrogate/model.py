"""CFNO-lite: a band-limited Fourier neural operator litho surrogate.

The model maps band-limited mask rasters to per-corner aerial intensity
on the pupil-band *subgrid* — the cheapest alias-free representation of
both quantities (see ``GridBandSpectra``).  The architecture mirrors the
physics: the exact SOCS forward model is

    I(x) = sum_k w_k |h_k * m|^2(x),

and the real/imaginary parts of each band-limited coherent field
``h_k * m`` are themselves realizable as single real-output spectral-conv
channels, so

    SpectralConv2d(1 -> width) -> channelwise square -> 1x1 Conv2d

*contains* the exact operator (width >= 2K channels per corner) and
training recovers it from labeled pairs.  Running on the ~30x30 subgrid
instead of the 256^2 full grid is where the 10-100x screening speed
comes from; :func:`~repro.litho.kernels.band_values_at_pixels` lifts
predictions to full-grid measure-point pixels through the same resample
map exact metrology uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.errors import SurrogateError
from repro.litho.kernels import (
    GridBandSpectra,
    OpticalKernelSet,
    band_limited_mask_subgrid_direct,
    band_values_at_pixels,
)
from repro.metrology.contour import ContourStencilPlan, SparseAerial
from repro.metrology.epe import measure_epe_grouped_sparse
from repro.nn import Conv2d, Module, SpectralConv2d, Tensor
from repro.surrogate.rasterless import rasterless_subgrid_masks

#: Output channels: nominal-focus and defocus aerial intensity.  The
#: dose corners share the defocus aerial (see ``LithoResult``), so two
#: channels cover all three process corners.
CORNERS = 2


class CFNOLite(Module):
    """Spectral-conv encoder + squared-field mixing head."""

    def __init__(
        self,
        modes: tuple[int, int],
        width: int = 24,
        corners: int = CORNERS,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.modes = (int(modes[0]), int(modes[1]))
        self.width = int(width)
        self.corners = int(corners)
        if self.width < 1 or self.corners < 1:
            raise SurrogateError(
                f"width/corners must be >= 1, got {width}/{corners}"
            )
        self.spectral = SpectralConv2d(1, self.width, self.modes, rng=rng)
        self.mix = Conv2d(self.width, self.corners, kernel_size=1, rng=rng)
        # Keyed (h, w, backend.array_identity): the matrices are built
        # host-side once, then materialized per array namespace/device so
        # a backend swap can never serve matrices resident elsewhere.
        self._fast_idft: dict[tuple, tuple] = {}

    def forward(self, x: Tensor) -> Tensor:
        """``(B, 1, m0, m1)`` band-limited mask -> ``(B, corners, m0, m1)``."""
        fields = self.spectral(x)
        return self.mix(fields * fields)

    def _fast_idft_matrices(
        self, h: int, w: int, backend: ArrayBackend
    ) -> tuple:
        """Cached inverse-DFT matrices lifting the band-limited spectrum.

        The mixed spectrum is zero outside ``2 m1`` rows and ``m2``
        columns, so the inverse transform is two small GEMMs instead of
        ``B * width`` pocketfft calls (whose per-transform overhead
        dominates at 30x30): ``fields = Re(rows_mat @ S @ cols_mat)``
        with the rfft column-Hermitian doubling folded into
        ``cols_mat``.  Both matrices are built in host float64/complex128
        and held in the backend's native representation (a passthrough
        for the numpy family, a device tensor for torch).
        """
        key = (h, w, backend.array_identity)
        cached = self._fast_idft.get(key)
        if cached is not None:
            return cached
        m1, m2 = self.modes
        row_freqs = np.concatenate([np.arange(m1), np.arange(h - m1, h)])
        rows_mat = (
            np.exp((2j * np.pi / h) * np.outer(np.arange(h), row_freqs)) / h
        )
        doubling = np.full(m2, 2.0)
        doubling[0] = 1.0
        if w % 2 == 0 and m2 - 1 == w // 2:
            doubling[-1] = 1.0
        cols_mat = (
            np.exp((2j * np.pi / w) * np.outer(np.arange(m2), np.arange(w)))
            * (doubling[:, None] / w)
        )
        pair = (backend.to_device(rows_mat), backend.to_device(cols_mat))
        self._fast_idft[key] = pair
        return pair

    def forward_fast(self, x, backend: ArrayBackend | None = None):
        """Inference-only array forward, equal to :meth:`forward` to
        float round-off.

        The autograd path builds a Tensor graph per op; at screening
        batch sizes that Python overhead costs more than the arithmetic.
        This replays the same math — band-limited spectral mix, square,
        1x1 channel mix — directly on arrays, with the inverse transform
        done by cached band-limited DFT GEMMs.

        ``backend=None`` (and any numpy-family backend) executes the
        historical host-numpy path bit-for-bit; under the torch backend
        the rfft2 and both GEMMs run on ``backend.device`` and the
        result is returned device-resident (callers hand it to
        :func:`~repro.litho.kernels.band_values_at_pixels`, which
        converts to host at the boundary).  All intermediates are pinned
        float64/complex128 regardless of ``torch.set_default_dtype``.
        """
        backend = backend or resolve_backend("numpy", 1)
        x = backend.asarray_f64(x)
        if x.ndim != 4 or x.shape[1] != 1:
            raise SurrogateError(
                "forward_fast expects (B, 1, m0, m1) input, got "
                f"{tuple(x.shape)}"
            )
        m1, m2 = self.modes
        h, w = int(x.shape[-2]), int(x.shape[-1])
        spec = backend.rfft2(x, axes=(-2, -1))
        w_pos = backend.to_device(
            self.spectral.weight_pos.data[..., 0]
            + 1j * self.spectral.weight_pos.data[..., 1]
        )
        w_neg = backend.to_device(
            self.spectral.weight_neg.data[..., 0]
            + 1j * self.spectral.weight_neg.data[..., 1]
        )
        mixed = backend.concat(
            [
                backend.einsum("bcij,ocij->boij", spec[:, :, :m1, :m2], w_pos),
                backend.einsum(
                    "bcij,ocij->boij", spec[:, :, h - m1 :, :m2], w_neg
                ),
            ],
            axis=2,
        )
        rows_mat, cols_mat = self._fast_idft_matrices(h, w, backend)
        fields = (rows_mat @ mixed @ cols_mat).real
        squared = fields * fields
        out = backend.einsum(
            "oc,bchw->bohw",
            backend.to_device(self.mix.weight.data[:, :, 0, 0]),
            squared,
        )
        return out + backend.to_device(self.mix.bias.data.reshape(1, -1, 1, 1))


def pupil_modes(band: GridBandSpectra) -> tuple[int, int]:
    """Spectral-conv mode counts covering the optics pupil band.

    ``(b0 + 1, b1 + 1)`` retains rows ``-b0..b0`` (positive and negative
    halves) and columns ``0..b1`` of the half-width spectrum — exactly
    the frequencies the projection optics pass, and nothing more.
    """
    b0, b1 = band.band
    return (b0 + 1, b1 + 1)


def _focus_kernel_set(simulator) -> OpticalKernelSet:
    nominal = simulator.corners()[0]
    return simulator.kernel_set(nominal.defocus_nm)


def _band_geometry(simulator, grid) -> tuple[GridBandSpectra, OpticalKernelSet]:
    """The grid's compact pupil band and the focus kernel set."""
    kernel_set = _focus_kernel_set(simulator)
    band = kernel_set.band_spectra(grid.shape)
    if not band.compact:
        raise SurrogateError(
            f"the {grid.shape} grid's pupil band is not compact; the "
            "surrogate only accelerates band-limited grids"
        )
    return band, kernel_set


def surrogate_features(
    masks: np.ndarray, simulator, grid
) -> tuple[np.ndarray, GridBandSpectra, OpticalKernelSet]:
    """Model input features for a ``(B, H, W)`` mask raster stack.

    The pupil-band gather yields the band-limited mask on the subgrid
    (physical 0..1 transmission scale) — everything the optics can see of
    the mask — via the direct separable-DFT route
    (:func:`~repro.litho.kernels.band_limited_mask_subgrid_direct`),
    which skips the full-grid forward FFT entirely.  Returns the ``(B,
    1, m0, m1)`` feature stack together with the band geometry and the
    focus kernel set the prediction path lifts through.  Masks may
    arrive device-resident under a device backend; features stay in the
    kernel set's native array representation.
    """
    band, kernel_set = _band_geometry(simulator, grid)
    masks = kernel_set.fft.asarray_f64(masks)
    if masks.ndim != 3:
        raise SurrogateError(
            f"mask stack must be 3-D (B, H, W), got shape {tuple(masks.shape)}"
        )
    sub = band_limited_mask_subgrid_direct(masks, band, kernel_set.fft)
    return sub[:, None, :, :], band, kernel_set


def surrogate_features_from_polygons(
    polygon_sets: list, simulator, grid
) -> tuple[np.ndarray, GridBandSpectra, OpticalKernelSet]:
    """:func:`surrogate_features` straight from mask polygons, no raster.

    One list of rectilinear polygons per candidate mask; the analytic
    slab transform (:mod:`repro.surrogate.rasterless`) produces the same
    band-limited subgrid features as rasterize-then-gather to float
    round-off, at a fraction of the cost — the screening hot path.
    """
    band, kernel_set = _band_geometry(simulator, grid)
    sub = rasterless_subgrid_masks(polygon_sets, grid, band)
    return sub[:, None, :, :], band, kernel_set


@dataclass
class SurrogateModel:
    """A trained CFNO-lite plus the litho-facing prediction paths."""

    net: CFNOLite

    def predict_subgrid(
        self, masks: np.ndarray, simulator, grid
    ) -> tuple[np.ndarray, GridBandSpectra, OpticalKernelSet]:
        """Predicted per-corner subgrid intensity ``(B, corners, m0, m1)``.

        Always returns host numpy; under a device backend the forward
        runs on-device and only the final intensity crosses back.
        """
        features, band, kernel_set = surrogate_features(masks, simulator, grid)
        backend = kernel_set.fft
        predicted = backend.to_host(self.net.forward_fast(features, backend))
        return predicted, band, kernel_set

    def predict_epe_totals(
        self,
        masks: np.ndarray,
        simulator,
        grid,
        plan: ContourStencilPlan,
        threshold: float,
    ) -> np.ndarray:
        """Predicted summed-|EPE| per mask, for candidate *ranking* only.

        The nominal-corner prediction lifts to the plan's stencil pixels
        through :func:`~repro.litho.kernels.band_values_at_pixels` (the
        same direct DFT gather exact sparse metrology uses) and resolves
        through the shared contour-crossing rule — so the only
        approximation in the loop is the learned intensity itself.
        Never report these numbers: the exact engine re-evaluates
        whichever candidate wins.
        """
        features, band, kernel_set = surrogate_features(masks, simulator, grid)
        return self._totals_from_features(features, band, kernel_set, plan, threshold)

    def predict_epe_totals_from_polygons(
        self,
        polygon_sets: list,
        simulator,
        grid,
        plan: ContourStencilPlan,
        threshold: float,
    ) -> np.ndarray:
        """:meth:`predict_epe_totals` from mask polygons via the rasterless
        feature path — what the screener calls per candidate panel."""
        features, band, kernel_set = surrogate_features_from_polygons(
            polygon_sets, simulator, grid
        )
        return self._totals_from_features(features, band, kernel_set, plan, threshold)

    def _totals_from_features(
        self,
        features: np.ndarray,
        band: GridBandSpectra,
        kernel_set: OpticalKernelSet,
        plan: ContourStencilPlan,
        threshold: float,
    ) -> np.ndarray:
        backend = kernel_set.fft
        predicted = self.net.forward_fast(features, backend)
        focus = backend.ascontiguous(predicted[:, 0])
        values = band_values_at_pixels(
            focus, band, plan.pixel_rows, plan.pixel_cols, backend
        )
        reports = measure_epe_grouped_sparse(
            [SparseAerial(plan, row) for row in values], threshold
        )
        return np.array([report.total_abs for report in reports])

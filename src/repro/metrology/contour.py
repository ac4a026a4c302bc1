"""Sub-pixel printed-contour location along measurement normals.

The printed contour is the level set ``aerial == threshold``.  For each
measure point we sample the aerial intensity along the outward normal and
locate the threshold crossing that bounds the printed region containing
(or nearest to) the target edge, with linear interpolation between samples
for sub-nanometre resolution.

There is one sampling path.  A :class:`ContourStencilPlan` enumerates,
once per (clip geometry, search window), the unique grid pixels every
bilinear stencil of every search sample touches: typically a few hundred
of the grid's ~10^5 pixels.  Intensities at that pixel set come either
from the lithography engine, which evaluates nothing else
(:meth:`repro.litho.simulator.LithographySimulator.simulate_epe_batch`
returns a :class:`SparseAerial`), or from a dense ``(..., H, W)`` image,
from which :func:`contour_offset_along_normal` gathers them.
:meth:`ContourStencilPlan.profiles` rebuilds the search profiles with
*exactly* the arithmetic of
:func:`~repro.geometry.raster.bilinear_sample_many`, and
:func:`_resolve_profiles` resolves every ``(..., n_offsets)`` profile at
once with numpy mask/argmax logic.  Dense and sparse EPE therefore differ
only by the engine's <= 1e-12 intensity round-off.

:func:`contour_offset_reference` is the independent scalar reference:
dense bilinear samples and one Python-loop :func:`_locate_crossing` per
point.  It is the executable specification of the crossing rule, and the
plan path is tested bit for bit against it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import MetrologyError
from repro.geometry.raster import Grid, _bilinear_weights, bilinear_sample_many


def _validate_inputs(
    points: np.ndarray, normals: np.ndarray, search_nm: float, step_nm: float
) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    if points.shape != normals.shape or points.ndim != 2 or points.shape[1] != 2:
        raise MetrologyError(
            f"points {points.shape} and normals {normals.shape} must both be (n, 2)"
        )
    if search_nm <= 0 or step_nm <= 0:
        raise MetrologyError("search_nm and step_nm must be positive")
    return points, normals


def _sample_coordinates(
    points: np.ndarray, normals: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened ``(n * n_offsets,)`` sample coordinates along each normal."""
    xs = (points[:, 0:1] + offsets[None, :] * normals[:, 0:1]).ravel()
    ys = (points[:, 1:2] + offsets[None, :] * normals[:, 1:2]).ravel()
    return xs, ys


def contour_offset_along_normal(
    aerial: np.ndarray,
    grid: Grid,
    points: np.ndarray,
    normals: np.ndarray,
    threshold: float,
    search_nm: float = 40.0,
    step_nm: float = 1.0,
) -> np.ndarray:
    """Signed contour offsets of measure points on dense aerials.

    The stencil plan's pixels are gathered from the image and resolved
    exactly as a sparse aerial would be, so dense and sparse
    measurements share one sampling path.

    Args:
        aerial: ``(..., H, W)`` aerial intensity on ``grid``: one image
            or any stack of them.
        points: ``(n, 2)`` measure-point coordinates (on target edges).
        normals: ``(n, 2)`` unit outward normals.
        threshold: Resist threshold.
        search_nm: Half-width of the search window along the normal.
        step_nm: Sampling pitch before interpolation.

    Returns:
        ``(..., n)`` signed offsets (nm): positive = contour outside the
        target edge, negative = inside.  Clamped to ``+/- search_nm``
        when the contour is not found within the window (e.g. unprinted
        feature).
    """
    plan = plan_contour_stencils(grid, points, normals, search_nm, step_nm)
    return plan.resolve(plan.gather(aerial), threshold)


@dataclass(frozen=True)
class ContourStencilPlan:
    """Precomputed sparse-sampling plan for one (geometry, window) pair.

    Attributes:
        grid: Raster grid the pixel indices address.
        points / normals: The ``(n, 2)`` measure points and outward
            normals the plan was built for.
        search_nm / step_nm: Search window parameters; ``offsets`` is the
            resulting ``(n_offsets,)`` sample offsets along each normal.
        pixel_rows / pixel_cols: ``(S,)`` unique grid pixels touched by
            any bilinear stencil of any search sample (the set a sparse
            intensity engine must evaluate).
        gather00..gather11 / frac_r / frac_c: Per-sample stencil corners
            as indices *into the pixel set* plus the fractional blend
            weights, mirroring :func:`~repro.geometry.raster.
            _bilinear_weights` exactly (including its border clamping).
    """

    grid: Grid
    points: np.ndarray
    normals: np.ndarray
    search_nm: float
    step_nm: float
    offsets: np.ndarray
    pixel_rows: np.ndarray
    pixel_cols: np.ndarray
    gather00: np.ndarray
    gather01: np.ndarray
    gather10: np.ndarray
    gather11: np.ndarray
    frac_r: np.ndarray
    frac_c: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_pixels(self) -> int:
        return len(self.pixel_rows)

    def gather(self, aerial: np.ndarray) -> np.ndarray:
        """The pixel set's ``(..., S)`` values from ``(..., H, W)``
        dense aerials on the plan's grid."""
        aerial = np.asarray(aerial, dtype=np.float64)
        if aerial.shape[-2:] != self.grid.shape:
            raise MetrologyError(
                f"aerial of shape {aerial.shape} is not on the "
                f"{self.grid.shape} grid"
            )
        return aerial[..., self.pixel_rows, self.pixel_cols]

    def profiles(self, values: np.ndarray) -> np.ndarray:
        """Search profiles from intensities at the plan's pixel set.

        ``values`` is ``(..., S)`` — intensity at ``(pixel_rows[s],
        pixel_cols[s])`` for any leading batch shape.  Returns ``(...,
        n, n_offsets)`` profiles, bit-for-bit equal to
        :func:`~repro.geometry.raster.bilinear_sample_many` on a dense
        image holding the same pixel values (the blend arithmetic is
        identical, operation for operation).

        Metrology always resolves host-side: device arrays (torch
        tensors from a device array backend) are converted to host
        numpy here, at the boundary, before any blend arithmetic.
        """
        if hasattr(values, "detach"):  # torch.Tensor (maybe CUDA) -> host
            values = values.detach().cpu().numpy()
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-1] != self.n_pixels:
            raise MetrologyError(
                f"expected {self.n_pixels} pixel values, got shape "
                f"{values.shape}"
            )
        frac_r, frac_c = self.frac_r, self.frac_c
        top = (
            values[..., self.gather00] * (1 - frac_c)
            + values[..., self.gather01] * frac_c
        )
        bottom = (
            values[..., self.gather10] * (1 - frac_c)
            + values[..., self.gather11] * frac_c
        )
        samples = top * (1 - frac_r) + bottom * frac_r
        return samples.reshape(
            *values.shape[:-1], self.n_points, len(self.offsets)
        )

    def resolve(self, values: np.ndarray, threshold: float) -> np.ndarray:
        """Signed contour offsets from sparse intensities (``(..., n)``).

        The crossing rule is the shared :func:`_resolve_profiles`, so
        given bit-identical profiles the result is bit-identical to
        :func:`contour_offset_reference`'s scalar walk.
        """
        return _resolve_profiles(
            self.profiles(values), self.offsets, len(self.offsets) // 2,
            threshold, self.search_nm,
        )


@dataclass(frozen=True)
class SparseAerial:
    """Aerial intensity evaluated only at a stencil plan's pixel set.

    ``values`` is the nominal-corner intensity, ``(S,)`` (or a leading
    batch shape).  Produced by
    :meth:`repro.litho.simulator.LithographySimulator.simulate_epe_batch`
    and consumed by :func:`contour_offsets_sparse` /
    :func:`repro.metrology.epe.measure_epe_sparse`.
    """

    plan: ContourStencilPlan
    values: np.ndarray


# Stencil plans are pure geometry — gather indices and bilinear blend
# weights derived from (grid, points, normals, window) alone, with no
# FFT or array-backend input — so the cache is deliberately *not* keyed
# on ArrayBackend identity: one plan serves every backend, and sparse
# values from any backend resolve through it host-side.
_PLAN_CACHE: "OrderedDict[tuple, ContourStencilPlan]" = OrderedDict()
_PLAN_CACHE_CAPACITY = 128
_PLAN_LOCK = threading.Lock()


def plan_contour_stencils(
    grid: Grid,
    points: np.ndarray,
    normals: np.ndarray,
    search_nm: float = 40.0,
    step_nm: float = 1.0,
) -> ContourStencilPlan:
    """Build (and cache) the sparse sampling plan for one geometry.

    Plans are cached per ``(grid, points, normals, search window)`` —
    clip geometry is immutable, so repeated verification or screening of
    the same clip reuses one plan.
    """
    points, normals = _validate_inputs(points, normals, search_nm, step_nm)
    key = (
        grid,
        points.tobytes(),
        normals.tobytes(),
        float(search_nm),
        float(step_nm),
    )
    with _PLAN_LOCK:
        cached = _PLAN_CACHE.get(key)
        if cached is not None:
            _PLAN_CACHE.move_to_end(key)
            return cached
    offsets = np.arange(-search_nm, search_nm + step_nm / 2, step_nm)
    xs, ys = _sample_coordinates(points, normals, offsets)
    # The exact corner/weight arithmetic of the dense samplers — reusing
    # _bilinear_weights keeps the out-of-raster clamping semantics
    # identical by construction.
    r0, c0, r1, c1, frac_r, frac_c = _bilinear_weights(grid, xs, ys)
    linear = np.concatenate([
        r0 * grid.cols + c0,
        r0 * grid.cols + c1,
        r1 * grid.cols + c0,
        r1 * grid.cols + c1,
    ])
    unique, inverse = np.unique(linear, return_inverse=True)
    n_samples = len(xs)
    plan = ContourStencilPlan(
        grid=grid,
        points=points,
        normals=normals,
        search_nm=float(search_nm),
        step_nm=float(step_nm),
        offsets=offsets,
        pixel_rows=unique // grid.cols,
        pixel_cols=unique % grid.cols,
        gather00=inverse[:n_samples],
        gather01=inverse[n_samples : 2 * n_samples],
        gather10=inverse[2 * n_samples : 3 * n_samples],
        gather11=inverse[3 * n_samples :],
        frac_r=frac_r,
        frac_c=frac_c,
    )
    with _PLAN_LOCK:
        _PLAN_CACHE[key] = plan
        while len(_PLAN_CACHE) > _PLAN_CACHE_CAPACITY:
            _PLAN_CACHE.popitem(last=False)
    return plan


def contour_offsets_sparse(
    aerials: "list[SparseAerial]", threshold: float
) -> list[np.ndarray]:
    """Resolve contour offsets for a group of sparse aerials at once.

    Profiles from every aerial concatenate into one vectorized
    :func:`_resolve_profiles` pass.  All plans must share one search
    window (the grouped verifier bins by it).
    """
    if not aerials:
        return []
    windows = {
        (aerial.plan.search_nm, aerial.plan.step_nm) for aerial in aerials
    }
    if len(windows) > 1:
        raise MetrologyError(
            f"sparse aerials mix search windows {sorted(windows)}; "
            "resolve them in separate calls"
        )
    reference = aerials[0].plan
    profiles: list[np.ndarray] = []
    counts: list[int] = []
    for aerial in aerials:
        counts.append(aerial.plan.n_points)
        if aerial.plan.n_points:
            profiles.append(aerial.plan.profiles(aerial.values))
    if profiles:
        resolved = _resolve_profiles(
            np.concatenate(profiles), reference.offsets,
            len(reference.offsets) // 2, threshold, reference.search_nm,
        )
    else:
        resolved = np.zeros(0, dtype=np.float64)
    out: list[np.ndarray] = []
    start = 0
    for count in counts:
        out.append(resolved[start : start + count])
        start += count
    return out


def contour_offset_reference(
    aerial: np.ndarray,
    grid: Grid,
    points: np.ndarray,
    normals: np.ndarray,
    threshold: float,
    search_nm: float = 40.0,
    step_nm: float = 1.0,
) -> np.ndarray:
    """Scalar-loop reference implementation (executable specification).

    Same contract as :func:`contour_offset_along_normal` on one ``(H,
    W)`` aerial, computed independently of the stencil plans: every
    sample by :func:`~repro.geometry.raster.bilinear_sample_many`, every
    profile by the per-point :func:`_locate_crossing` walk.  Kept for
    parity testing and as the baseline of the metrology throughput
    benchmark; production callers use the plan.
    """
    points, normals = _validate_inputs(points, normals, search_nm, step_nm)
    offsets = np.arange(-search_nm, search_nm + step_nm / 2, step_nm)
    xs, ys = _sample_coordinates(points, normals, offsets)
    samples = bilinear_sample_many(aerial, grid, xs, ys).reshape(
        len(points), len(offsets)
    )
    centre = len(offsets) // 2
    result = np.empty(len(points), dtype=np.float64)
    for i in range(len(points)):
        result[i] = _locate_crossing(
            samples[i], offsets, centre, threshold, search_nm
        )
    return result


def _resolve_profiles(
    samples: np.ndarray,
    offsets: np.ndarray,
    centre: int,
    threshold: float,
    search_nm: float,
) -> np.ndarray:
    """Vectorized crossing resolution for ``(..., n_offsets)`` profiles.

    Implements exactly the :func:`_locate_crossing` rule: printed at the
    target edge -> first outward fall below the threshold; unprinted ->
    first inward rise above it; no crossing -> clamp to ``+/-search_nm``.
    Every elementwise operation mirrors the scalar reference, so results
    are bit-for-bit identical to it.
    """
    printed = samples[..., centre] >= threshold
    # cross[..., k] marks a printed->unprinted transition between sample
    # k and k+1 — the one array both walk directions search.
    cross = (samples[..., :-1] >= threshold) & (samples[..., 1:] < threshold)

    outward = cross[..., centre:]
    if outward.shape[-1]:
        has_out = outward.any(axis=-1)
        k_out = centre + outward.argmax(axis=-1)
    else:
        has_out = np.zeros(printed.shape, dtype=bool)
        k_out = np.zeros(printed.shape, dtype=np.int64)

    inward = cross[..., :centre]
    if inward.shape[-1]:
        has_in = inward.any(axis=-1)
        # Scanning j = centre..1 downward means the *last* marked
        # transition below the centre wins.
        k_in = centre - 1 - inward[..., ::-1].argmax(axis=-1)
    else:
        has_in = np.zeros(printed.shape, dtype=bool)
        k_in = np.zeros(printed.shape, dtype=np.int64)

    found = np.where(printed, has_out, has_in)
    k = np.where(printed, k_out, k_in)
    k = np.clip(k, 0, len(offsets) - 2)  # safe gather where not found

    v_in = np.take_along_axis(samples, k[..., None], axis=-1)[..., 0]
    v_out = np.take_along_axis(samples, k[..., None] + 1, axis=-1)[..., 0]
    x_in = offsets[k]
    x_out = offsets[k + 1]
    span = v_in - v_out
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (v_in - threshold) / span
        interpolated = np.where(
            span > 0, x_in + frac * (x_out - x_in), (x_in + x_out) / 2
        )
    clamp = np.where(printed, search_nm, -search_nm)
    return np.where(found, interpolated, clamp)


def _locate_crossing(
    profile: np.ndarray,
    offsets: np.ndarray,
    centre: int,
    threshold: float,
    search_nm: float,
) -> float:
    """Find the signed contour offset on one intensity profile.

    If the target-edge sample is printed (>= threshold) the feature reaches
    the target here, so walk outward to where intensity drops below the
    threshold (overflow, positive EPE).  Otherwise walk inward to where it
    rises above (underflow, negative EPE).
    """
    printed_at_edge = profile[centre] >= threshold
    if printed_at_edge:
        for j in range(centre, len(profile) - 1):
            if profile[j] >= threshold > profile[j + 1]:
                return _interpolate(offsets[j], offsets[j + 1],
                                    profile[j], profile[j + 1], threshold)
        return search_nm
    for j in range(centre, 0, -1):
        if profile[j] < threshold <= profile[j - 1]:
            return _interpolate(offsets[j - 1], offsets[j],
                                profile[j - 1], profile[j], threshold)
    return -search_nm


def _interpolate(
    x_hi_side_in: float, x_lo_side_out: float, v_in: float, v_out: float,
    threshold: float,
) -> float:
    """Linear interpolation of the threshold crossing between two samples."""
    span = v_in - v_out
    if span <= 0:
        return (x_hi_side_in + x_lo_side_out) / 2
    frac = (v_in - threshold) / span
    return x_hi_side_in + frac * (x_lo_side_out - x_hi_side_in)

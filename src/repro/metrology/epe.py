"""Edge placement error measurement.

Two granularities are used by the OPC engines:

* measure points — EPE at the official measure points only; this is
  what the paper's tables report (summed absolute EPE per clip);
* control points — signed EPE at *every* segment control point; this
  drives the CAMO modulator and the per-segment corrections of the
  model-based baseline, including unmeasured line-end segments.

Both are read through one :class:`~repro.metrology.contour.
ContourStencilPlan` per geometry.  The sparse entry points
(:func:`measure_epe_sparse`, :func:`measure_epe_grouped_sparse`) take the
plan's pixel values from the litho engine; the dense ones
(:func:`measure_epe`, :func:`segment_epe`, their ``_batch`` forms and
:func:`measure_epe_grouped`) gather the same pixels from ``(H, W)`` or
``(B, H, W)`` aerials.

EPE is resolved in float64: the
:class:`~repro.metrology.contour.ContourStencilPlan` coerces the pixel
values it is given before any blend arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MetrologyError
from repro.geometry.raster import Grid
from repro.geometry.segmentation import Segment
from repro.metrology.contour import (
    ContourStencilPlan,
    SparseAerial,
    contour_offset_along_normal,
    contour_offsets_sparse,
    plan_contour_stencils,
)


@dataclass(frozen=True)
class EPEReport:
    """EPE measurements at the official measure points of a clip."""

    values: np.ndarray
    """Signed EPE (nm) per measure point; positive = contour outside."""

    @property
    def total_abs(self) -> float:
        """Summed absolute EPE — the per-clip number the paper tabulates."""
        return float(np.abs(self.values).sum())

    @property
    def mean_abs(self) -> float:
        return float(np.abs(self.values).mean()) if len(self.values) else 0.0

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.values).max()) if len(self.values) else 0.0

    @property
    def count(self) -> int:
        return len(self.values)

    def violations(self, limit_nm: float = 5.0) -> int:
        """Number of measure points whose |EPE| is at or above ``limit_nm``
        (ICCAD-13 style violation counting)."""
        return int((np.abs(self.values) >= limit_nm).sum())


def _measured_points(
    segments: list[Segment],
) -> tuple[np.ndarray, np.ndarray]:
    """``(n, 2)`` measure points and normals of the measured segments.

    The one extraction rule shared by every measure-point entry point,
    so the dense and sparse paths can never filter differently.
    """
    measured = [s for s in segments if s.measure_point is not None]
    points = np.asarray(
        [s.measure_point for s in measured], dtype=np.float64
    ).reshape(len(measured), 2)
    normals = np.asarray(
        [s.normal for s in measured], dtype=np.float64
    ).reshape(len(measured), 2)
    return points, normals


def measure_epe(
    aerial: np.ndarray,
    grid: Grid,
    segments: list[Segment],
    threshold: float,
    search_nm: float = 40.0,
    step_nm: float = 1.0,
) -> EPEReport:
    """EPE at every segment that owns a measure point."""
    values = contour_offset_along_normal(
        aerial, grid, *_measured_points(segments), threshold, search_nm,
        step_nm,
    )
    return EPEReport(values=values)


def measure_epe_batch(
    aerials: np.ndarray,
    grid: Grid,
    segments: list[Segment],
    threshold: float,
    search_nm: float = 40.0,
    step_nm: float = 1.0,
) -> list[EPEReport]:
    """Measure-point EPE of ``(B, H, W)`` aerials sharing one clip,
    bit-for-bit equal to mapping :func:`measure_epe` over the stack."""
    values = contour_offset_along_normal(
        aerials, grid, *_measured_points(segments), threshold, search_nm,
        step_nm,
    )
    return [EPEReport(values=row) for row in values]


def segment_epe(
    aerial: np.ndarray,
    grid: Grid,
    segments: list[Segment],
    threshold: float,
    search_nm: float = 40.0,
    step_nm: float = 1.0,
) -> np.ndarray:
    """Signed EPE at every segment's control point (modulator input).

    Measured against the *target* control point, so it reflects how far the
    printed contour is from where the design wants the edge — independent
    of the segment's current mask offset.  A ``(B, H, W)`` stack gives
    ``(B, n_segments)`` offsets.
    """
    points = np.asarray([s.control for s in segments], dtype=np.float64)
    normals = np.asarray([s.normal for s in segments], dtype=np.float64)
    return contour_offset_along_normal(
        aerial, grid, points.reshape(-1, 2), normals.reshape(-1, 2),
        threshold, search_nm, step_nm,
    )


def segment_epe_batch(
    aerials: np.ndarray,
    grid: Grid,
    segments: list[Segment],
    threshold: float,
    search_nm: float = 40.0,
    step_nm: float = 1.0,
) -> np.ndarray:
    """Control-point EPE of ``(B, H, W)`` aerials sharing one clip:
    :func:`segment_epe` on the stack, ``(B, n_segments)``."""
    return segment_epe(aerials, grid, segments, threshold, search_nm, step_nm)


def measure_stencil_plan(
    grid: Grid,
    segments: list[Segment],
    search_nm: float = 40.0,
    step_nm: float = 1.0,
) -> ContourStencilPlan | None:
    """Sparse sampling plan for a clip's official measure points.

    Applies the same :func:`_measured_points` extraction rule as every
    dense entry point, so the sparse path can never measure a different
    point set.  Returns ``None`` when no segment owns a measure point
    (nothing to evaluate sparsely).
    """
    points, normals = _measured_points(segments)
    if not len(points):
        return None
    return plan_contour_stencils(grid, points, normals, search_nm, step_nm)


def measure_epe_sparse(aerial: SparseAerial, threshold: float) -> EPEReport:
    """Measure-point EPE from a sparsely evaluated aerial.

    ``aerial.values`` holds the nominal-corner intensity at the plan's
    pixel set (from :meth:`repro.litho.simulator.LithographySimulator.
    simulate_epe_batch`); profiles and the crossing rule are the dense
    path's, so the resolved offsets agree with it to the litho engine's
    <= 1e-12 intensity round-off (<= 1e-9 nm).
    """
    return EPEReport(
        values=aerial.plan.resolve(aerial.values, threshold)
    )


def measure_epe_grouped_sparse(
    aerials: "list[SparseAerial | None]", threshold: float
) -> list[EPEReport]:
    """Grouped sparse EPE: one vectorized crossing pass for many clips.

    The shape-binned verifier's entry point.  ``None`` entries (clips
    without measure points) come back as empty reports.
    """
    populated = [aerial for aerial in aerials if aerial is not None]
    resolved = iter(contour_offsets_sparse(populated, threshold))
    return [
        EPEReport(values=np.zeros(0)) if aerial is None
        else EPEReport(values=next(resolved))
        for aerial in aerials
    ]


def measure_epe_grouped(
    aerials: np.ndarray,
    grids: list[Grid],
    segments_list: list[list[Segment]],
    threshold: float,
    search_nm: float = 40.0,
    step_nm: float = 1.0,
) -> list[EPEReport]:
    """Measure-point EPE for heterogeneous (aerial, grid, segments) items.

    Each dense aerial's stencil pixels are gathered into a
    :class:`SparseAerial`, and all of them resolve in one
    :func:`measure_epe_grouped_sparse` pass.
    """
    if not len(aerials) == len(grids) == len(segments_list):
        raise MetrologyError(
            "aerials, grids and segments lists must have equal length"
        )
    sparse: list[SparseAerial | None] = []
    for aerial, grid, segments in zip(aerials, grids, segments_list):
        plan = measure_stencil_plan(grid, segments, search_nm, step_nm)
        sparse.append(
            None if plan is None
            else SparseAerial(plan=plan, values=plan.gather(aerial))
        )
    return measure_epe_grouped_sparse(sparse, threshold)

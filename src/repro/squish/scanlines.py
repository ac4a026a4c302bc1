"""Scanline extraction for squish encoding."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import SquishError
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect


def scanline_positions(
    polygons: Iterable[Polygon],
    window: Rect,
    extra_x: Sequence[float] = (),
    extra_y: Sequence[float] = (),
    tolerance: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique scanline coordinates covering a window.

    Scanlines are placed at the window borders and, on each axis, at
    every vertex coordinate of ``polygons`` that lies strictly inside the
    window's span on that axis, wherever the vertex lies on the other
    axis: a polygon that reaches into the window places lines at all its
    vertices in the span, also at jog vertices outside the window.
    ``NodeFeatureEncoder`` applies the same rule to the polygons
    overlapping each window.
    Callers can force additional scanlines (CAMO adds the *target* edges
    when encoding the mask).

    Returns:
        ``(xs, ys)`` strictly increasing coordinate arrays, both starting
        at the window's low edge and ending at its high edge.
    """
    points = np.array(
        [v for polygon in polygons for v in polygon.vertices], dtype=np.float64
    ).reshape(-1, 2)
    return tuple(
        axis_scanlines(
            np.array([lo]), np.array([hi]),
            np.concatenate([points[:, axis], np.asarray(extra, dtype=np.float64)]),
            tolerance=tolerance,
        )[0][0]
        for axis, lo, hi, extra in (
            (0, window.x0, window.x1, extra_x), (1, window.y0, window.y1, extra_y)
        )
    )


def axis_scanlines(
    lo: np.ndarray,
    hi: np.ndarray,
    values: np.ndarray,
    valid: np.ndarray | None = None,
    tolerance: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Scanlines along one axis of R windows at once.

    Row ``r`` keeps the candidates ``values`` (``(V,)`` shared by every
    row, or ``(R, V)``) that ``valid`` selects for it and that lie
    strictly inside ``(lo[r], hi[r])``, adds the two borders, then sorts
    and drops every coordinate within ``tolerance`` of its predecessor.

    Returns:
        ``(lines, counts)``: ``(R, L)`` scanlines, row ``r`` strictly
        increasing over its first ``counts[r]`` entries and padded with
        its last scanline, so padded cells have zero width.
    """
    lo, hi = lo[:, None], hi[:, None]
    inside = (lo < values) & (values < hi)
    if valid is not None:
        inside &= valid
    # Rejected candidates become copies of ``hi``: they sort to the end
    # and fall to the tolerance rule, leaving each row's kept lines as
    # they would be without them.
    candidates = np.where(inside, values, hi)
    ordered = np.sort(np.concatenate([lo, hi, candidates], axis=1), axis=1)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:, 0] = True
    keep[:, 1:] = np.diff(ordered, axis=1) > tolerance
    counts = keep.sum(axis=1)
    if counts.min() < 2:
        raise SquishError("window degenerated to fewer than two scanlines")
    starts = np.cumsum(counts) - counts
    slot = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    return ordered[keep][starts[:, None] + slot], counts

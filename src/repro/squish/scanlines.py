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

    Scanlines are placed at the window borders and at every polygon edge
    coordinate that falls inside the window; callers can force additional
    scanlines (CAMO adds the *target* edges when encoding the mask).

    Returns:
        ``(xs, ys)`` strictly increasing coordinate arrays, both starting
        at the window's low edge and ending at its high edge.
    """
    polys = list(polygons)
    vertex_x = [x for polygon in polys for x, _ in polygon.vertices]
    vertex_y = [y for polygon in polys for _, y in polygon.vertices]
    return window_scanlines(
        window,
        np.asarray(vertex_x + list(extra_x), dtype=np.float64),
        np.asarray(vertex_y + list(extra_y), dtype=np.float64),
        tolerance,
    )


def window_scanlines(
    window: Rect, xs: np.ndarray, ys: np.ndarray, tolerance: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`scanline_positions` from candidate coordinate arrays.

    Keeps the candidates strictly inside the window, adds its borders,
    then sorts and merges coordinates closer than ``tolerance``.
    """
    xs_arr = _axis_scanlines(xs, window.x0, window.x1, tolerance)
    ys_arr = _axis_scanlines(ys, window.y0, window.y1, tolerance)
    if len(xs_arr) < 2 or len(ys_arr) < 2:
        raise SquishError("window degenerated to fewer than two scanlines")
    return xs_arr, ys_arr


def _axis_scanlines(
    values: np.ndarray, lo: float, hi: float, tolerance: float
) -> np.ndarray:
    inside = values[(lo < values) & (values < hi)]
    ordered = np.sort(np.concatenate(([lo, hi], inside)))
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(ordered) > tolerance
    return ordered[keep]

"""Squish pattern encoding: ``(M, delta_x, delta_y)``.

The scanline grid splits the window into cells that never straddle a
polygon edge, so testing each cell *centre* against the geometry gives an
exact occupancy matrix.  The spacing vectors record each cell's physical
extent — together they reproduce the window geometry losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import SquishError
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.squish.scanlines import scanline_positions


@dataclass(frozen=True)
class SquishPattern:
    """A squished window.

    Attributes:
        matrix: ``(ny, nx)`` uint8 occupancy (row 0 = bottom cells).
        delta_x: ``(nx,)`` cell widths in nm.
        delta_y: ``(ny,)`` cell heights in nm.
        origin: Window low corner ``(x0, y0)``.
    """

    matrix: np.ndarray
    delta_x: np.ndarray
    delta_y: np.ndarray
    origin: tuple[float, float]

    def __post_init__(self) -> None:
        ny, nx = self.matrix.shape
        if len(self.delta_x) != nx or len(self.delta_y) != ny:
            raise SquishError(
                f"matrix {self.matrix.shape} inconsistent with deltas "
                f"({len(self.delta_y)}, {len(self.delta_x)})"
            )

    @property
    def width(self) -> float:
        return float(self.delta_x.sum())

    @property
    def height(self) -> float:
        return float(self.delta_y.sum())

    @property
    def covered_area(self) -> float:
        """Total geometry area inside the window (nm^2)."""
        return float(self.delta_y @ self.matrix.astype(np.float64) @ self.delta_x)

    def to_dense(self, pixel_nm: float) -> np.ndarray:
        """Expand back to a uniform raster (for tests and visualization)."""
        if pixel_nm <= 0:
            raise SquishError("pixel_nm must be positive")
        cols = np.maximum(1, np.round(self.delta_x / pixel_nm).astype(int))
        rows = np.maximum(1, np.round(self.delta_y / pixel_nm).astype(int))
        return np.repeat(np.repeat(self.matrix, rows, axis=0), cols, axis=1)


def encode_squish(
    polygons: Iterable[Polygon],
    window: Rect,
    extra_x: Sequence[float] = (),
    extra_y: Sequence[float] = (),
) -> SquishPattern:
    """Squish-encode the geometry visible in ``window``.

    ``extra_x`` / ``extra_y`` force additional scanlines (CAMO's
    target-edge highlighting); they refine the grid without changing the
    encoded geometry.
    """
    polys = list(polygons)
    xs, ys = scanline_positions(polys, window, extra_x=extra_x, extra_y=extra_y)
    matrix = _occupancy([vertical_edges(p.vertices) for p in polys], xs, ys)
    return SquishPattern(
        matrix=matrix,
        delta_x=np.diff(xs),
        delta_y=np.diff(ys),
        origin=(window.x0, window.y0),
    )


@dataclass(frozen=True)
class PolygonTable:
    """Bounding boxes, vertices and vertical edges of a polygon list.

    Extracted once so that many windows can be encoded from the same
    geometry without touching the ``Polygon`` objects again.

    Attributes:
        bboxes: ``(P, 4)`` rows of ``(x0, y0, x1, y1)``.
        vertices: Per polygon, its ``(V, 2)`` vertex array.
        edges: Per polygon, its :func:`vertical_edges`.
    """

    bboxes: np.ndarray
    vertices: tuple[np.ndarray, ...]
    edges: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, polygons: Sequence[Polygon]) -> "PolygonTable":
        vertices = tuple(
            np.asarray(p.vertices, dtype=np.float64) for p in polygons
        )
        bboxes = np.array(
            [[*v.min(axis=0), *v.max(axis=0)] for v in vertices],
            dtype=np.float64,
        ).reshape(-1, 4)
        return cls(bboxes, vertices, tuple(vertical_edges(v) for v in vertices))

    def overlapping(self, window: Rect) -> np.ndarray:
        """Indices of the polygons whose bbox overlaps the window with
        positive area (:meth:`Rect.intersects`)."""
        x0, y0, x1, y1 = self.bboxes.T
        return np.flatnonzero(
            (x0 < window.x1) & (window.x0 < x1) & (y0 < window.y1) & (window.y0 < y1)
        )

    def occupancy(
        self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """Occupancy matrix of the polygons ``ids`` on a scanline grid."""
        return _occupancy([self.edges[i] for i in ids], xs, ys)


def vertical_edges(
    vertices: Sequence[tuple[float, float]] | np.ndarray,
) -> np.ndarray:
    """``(E, 3)`` rows of ``(x, y_lo, y_hi)``, one per vertical edge of
    the closed vertex loop."""
    verts = np.asarray(vertices, dtype=np.float64)
    a, b = verts, np.roll(verts, -1, axis=0)
    vertical = a[:, 0] == b[:, 0]
    a, b = a[vertical], b[vertical]
    return np.stack(
        [a[:, 0], np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])],
        axis=1,
    )


def _occupancy(
    edge_sets: Sequence[np.ndarray], xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Even-odd test of every cell centre against every polygon.

    A centre is inside a polygon when an odd number of its vertical edges
    lie to the right of it within their ``[y_lo, y_hi)`` span; the count
    over all edges of one polygon is one ``(rows x E) @ (E x cols)``
    product.  Polygons are OR-ed.
    """
    cx = (xs[:-1] + xs[1:]) / 2
    cy = (ys[:-1] + ys[1:]) / 2
    occupied = np.zeros((len(cy), len(cx)), dtype=np.uint8)
    for edges in edge_sets:
        x, y_lo, y_hi = edges.T
        row_hit = (y_lo[:, None] <= cy) & (cy < y_hi[:, None])
        col_hit = cx < x[:, None]
        crossings = row_hit.T.astype(np.int64) @ col_hit.astype(np.int64)
        occupied |= (crossings & 1).astype(np.uint8)
    return occupied

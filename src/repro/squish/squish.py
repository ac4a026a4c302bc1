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
from repro.geometry.mask_edit import vertex_loops
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
    edges = (
        PolygonTable.of([vertex_loops(polys)]).edges
        if polys else np.empty((0, 0, 3))
    )
    layer_of = np.zeros((1, len(polys)), dtype=np.intp)
    return SquishPattern(
        matrix=squish_occupancy(xs[None], ys[None], edges, layer_of, 1)[0, 0],
        delta_x=np.diff(xs),
        delta_y=np.diff(ys),
        origin=(window.x0, window.y0),
    )


@dataclass(frozen=True)
class PolygonTable:
    """Bounding boxes, vertices and vertical edges of polygon lists.

    Extracted once per encode, so that every window is encoded from flat
    arrays.  The lists (one per population member's mask, plus the
    targets), each given as vertex loops, are concatenated; polygon
    ``g`` came from list ``source[g]``.

    Attributes:
        bboxes: ``(G, 4)`` rows of ``(x0, y0, x1, y1)``.
        source: ``(G,)`` list index of each polygon.
        vertices: ``(V, 2)`` every polygon's vertices, polygon by polygon.
        owner: ``(V,)`` polygon index of each vertex.
        edges: ``(G, E, 3)`` rows of ``(x, y_lo, y_hi)``, one per vertical
            edge of each closed vertex loop, padded with NaN edges, which
            cross nothing.
    """

    bboxes: np.ndarray
    source: np.ndarray
    vertices: np.ndarray
    owner: np.ndarray
    edges: np.ndarray

    @classmethod
    def of(
        cls, sources: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> "PolygonTable":
        """Table of vertex loops: each source is ``(vertices, counts)``,
        ``(V, 2)`` vertices loop by loop and each loop's vertex count
        (as :meth:`repro.geometry.mask_edit.MaskState.mask_vertices` and
        :func:`repro.geometry.mask_edit.vertex_loops` give them)."""
        source = np.repeat(
            np.arange(len(sources)), [len(counts) for _, counts in sources]
        )
        counts = np.concatenate([counts for _, counts in sources])
        vertices = np.concatenate([vertices for vertices, _ in sources])
        owner = np.repeat(np.arange(len(counts)), counts)
        starts = np.cumsum(counts) - counts
        low, high = np.minimum.reduceat, np.maximum.reduceat
        bboxes = np.hstack([low(vertices, starts), high(vertices, starts)])
        # Each vertex with the next one around its own loop.
        after = np.arange(1, len(vertices) + 1)
        after[starts + counts - 1] = starts
        vertical = np.flatnonzero(vertices[:, 0] == vertices[after, 0])
        a, b = vertices[vertical, 1], vertices[after[vertical], 1]
        edge_owner = owner[vertical]
        rank = np.arange(len(vertical)) - np.searchsorted(edge_owner, edge_owner)
        edges = np.full((len(counts), rank.max() + 1, 3), np.nan)
        edges[edge_owner, rank] = np.stack(
            [vertices[vertical, 0], np.minimum(a, b), np.maximum(a, b)], axis=1
        )
        return cls(bboxes, source, vertices, owner, edges)


def squish_occupancy(
    xs: np.ndarray,
    ys: np.ndarray,
    edges: np.ndarray,
    layer_of: np.ndarray,
    n_layers: int,
) -> np.ndarray:
    """Occupancy of R scanline grids: ``(R, n_layers, Ly - 1, Lx - 1)``.

    ``xs`` ``(R, Lx)`` and ``ys`` ``(R, Ly)`` are the (padded) scanline
    grids.  Polygon ``g`` (row ``g`` of ``edges``) is drawn into layer
    ``layer_of[r, g]`` of grid ``r``, or left out where that is -1.  A
    cell centre is inside a polygon when an odd number of its vertical
    edges lie to the right of it within their ``[y_lo, y_hi)`` span; the
    count for one (grid, polygon) pair is a ``(Ly - 1, E) @ (E, Lx - 1)``
    product, all pairs in one batched ``matmul``.  The polygons of one
    layer are OR-ed.
    """
    cx = (xs[:, :-1] + xs[:, 1:]) / 2
    cy = (ys[:, :-1] + ys[:, 1:]) / 2
    occupied = np.zeros((len(xs) * n_layers, cy.shape[1], cx.shape[1]), np.uint8)
    rows, polygons = np.nonzero(layer_of >= 0)
    x, y_lo, y_hi = np.moveaxis(edges[polygons], -1, 0)
    cy_q = cy[rows][:, :, None]
    row_hit = (y_lo[:, None, :] <= cy_q) & (cy_q < y_hi[:, None, :])
    col_hit = cx[rows][:, None, :] < x[:, :, None]
    # Crossing counts are small integers: exact in float32, at half the memory.
    crossings = np.matmul(row_hit.astype(np.float32), col_hit.astype(np.float32))
    odd = (crossings.astype(np.int64) & 1).astype(np.uint8)
    group = rows * n_layers + layer_of[rows, polygons]
    np.bitwise_or.at(occupied, group, odd)
    return occupied.reshape(len(xs), n_layers, *occupied.shape[1:])

"""Rasterization of rectilinear polygons onto nanometre pixel grids.

The lithography simulator operates on binary mask images; this module maps
between nm-space geometry and pixel space.  Filling uses per-row scanline
crossing counts against vertical edges, which is exact for rectilinear
polygons evaluated at pixel centres.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import RasterError
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class Grid:
    """A uniform pixel grid covering a window.

    Pixel ``(row, col)`` has its centre at
    ``(x0 + (col + 0.5) * pixel_nm,  y0 + (row + 0.5) * pixel_nm)``.
    Row 0 is the *bottom* row (y increases with row index), matching layout
    coordinates rather than image conventions.
    """

    x0: float
    y0: float
    pixel_nm: float
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.pixel_nm <= 0:
            raise RasterError(f"pixel size must be positive, got {self.pixel_nm}")
        if self.rows <= 0 or self.cols <= 0:
            raise RasterError(f"empty grid: {self.rows} x {self.cols}")

    @classmethod
    def for_window(cls, window: Rect, pixel_nm: float) -> "Grid":
        """Grid exactly covering ``window`` (dimensions rounded up)."""
        cols = int(np.ceil(window.width / pixel_nm))
        rows = int(np.ceil(window.height / pixel_nm))
        return cls(window.x0, window.y0, pixel_nm, rows, cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def window(self) -> Rect:
        return Rect(
            self.x0,
            self.y0,
            self.x0 + self.cols * self.pixel_nm,
            self.y0 + self.rows * self.pixel_nm,
        )

    # -- coordinate transforms ---------------------------------------------
    def x_centers(self) -> np.ndarray:
        return self.x0 + (np.arange(self.cols) + 0.5) * self.pixel_nm

    def y_centers(self) -> np.ndarray:
        return self.y0 + (np.arange(self.rows) + 0.5) * self.pixel_nm

    def nm_to_fractional_index(self, x: float, y: float) -> tuple[float, float]:
        """Map nm coordinates to fractional (row, col) pixel-centre indices."""
        col = (x - self.x0) / self.pixel_nm - 0.5
        row = (y - self.y0) / self.pixel_nm - 0.5
        return (row, col)

    def contains(self, x: float, y: float) -> bool:
        return self.window.contains_point(x, y)


def rasterize(
    polygons: Iterable[Polygon], grid: Grid, antialias: bool = True
) -> np.ndarray:
    """Graytone image of the union of ``polygons`` on ``grid``.

    With ``antialias=True`` (the default, and what the lithography
    simulator needs) each pixel holds the exact fractional area covered by
    the geometry, so sub-pixel mask-edge movements change the image
    smoothly — without this, OPC moves smaller than the pixel pitch would
    be invisible and the apparent MEEF explodes.  ``antialias=False``
    returns the classic 0/1 pixel-centre membership image.

    Polygons are assumed mutually disjoint (targets + SRAFs always are);
    the result is clipped to [0, 1] regardless.
    """
    image = np.zeros(grid.shape, dtype=np.float64)
    for polygon in polygons:
        for x_lo, x_hi, y_lo, y_hi in slab_decomposition(polygon):
            _add_slab_coverage(image, grid, x_lo, x_hi, y_lo, y_hi)
    np.clip(image, 0.0, 1.0, out=image)
    if not antialias:
        return (image >= 0.5).astype(np.uint8)
    return image


def slab_decomposition(polygon: Polygon):
    """Split a rectilinear polygon into disjoint axis-aligned slabs.

    Cutting at every distinct vertex y gives horizontal bands inside which
    the polygon's cross-section is a fixed union of x-intervals.  The
    antialiased raster is exactly the sum of the slabs' pixel-coverage
    outer products.
    """
    verts = polygon.vertices
    n = len(verts)
    vertical_edges = []
    for i in range(n):
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
        if ax == bx:
            vertical_edges.append((ax, min(ay, by), max(ay, by)))
    if not vertical_edges:
        raise RasterError("polygon has no vertical edges")
    y_cuts = sorted({v[1] for v in verts})
    for y_lo, y_hi in zip(y_cuts, y_cuts[1:]):
        y_mid = (y_lo + y_hi) / 2
        crossings = sorted(
            ex for ex, ey0, ey1 in vertical_edges if ey0 <= y_mid < ey1
        )
        for k in range(0, len(crossings) - 1, 2):
            yield (crossings[k], crossings[k + 1], y_lo, y_hi)


def _add_slab_coverage(
    image: np.ndarray,
    grid: Grid,
    x_lo: float,
    x_hi: float,
    y_lo: float,
    y_hi: float,
) -> None:
    """Accumulate the exact pixel-coverage of one rectangle."""
    px = grid.pixel_nm
    x_lo = max(x_lo, grid.x0)
    y_lo = max(y_lo, grid.y0)
    x_hi = min(x_hi, grid.x0 + grid.cols * px)
    y_hi = min(y_hi, grid.y0 + grid.rows * px)
    if x_lo >= x_hi or y_lo >= y_hi:
        return
    col_lo = int((x_lo - grid.x0) // px)
    col_hi = int(np.ceil((x_hi - grid.x0) / px))
    row_lo = int((y_lo - grid.y0) // px)
    row_hi = int(np.ceil((y_hi - grid.y0) / px))

    cols = np.arange(col_lo, col_hi)
    rows = np.arange(row_lo, row_hi)
    col_starts = grid.x0 + cols * px
    row_starts = grid.y0 + rows * px
    wx = (np.minimum(col_starts + px, x_hi) - np.maximum(col_starts, x_lo)) / px
    wy = (np.minimum(row_starts + px, y_hi) - np.maximum(row_starts, y_lo)) / px
    image[row_lo:row_hi, col_lo:col_hi] += np.outer(wy, wx)


def bilinear_sample(image: np.ndarray, grid: Grid, x: float, y: float) -> float:
    """Bilinearly interpolate a scalar field stored on ``grid`` at nm point.

    Out-of-window points clamp to the border value, which is the right
    behaviour for intensity fields that have decayed to background there.
    """
    row_f, col_f = grid.nm_to_fractional_index(x, y)
    row_f = float(np.clip(row_f, 0.0, grid.rows - 1.0))
    col_f = float(np.clip(col_f, 0.0, grid.cols - 1.0))
    r0 = int(np.floor(row_f))
    c0 = int(np.floor(col_f))
    r1 = min(r0 + 1, grid.rows - 1)
    c1 = min(c0 + 1, grid.cols - 1)
    fr = row_f - r0
    fc = col_f - c0
    top = image[r0, c0] * (1 - fc) + image[r0, c1] * fc
    bottom = image[r1, c0] * (1 - fc) + image[r1, c1] * fc
    return float(top * (1 - fr) + bottom * fr)


def _bilinear_weights(
    grid: Grid, xs: Sequence[float], ys: Sequence[float]
) -> tuple[np.ndarray, ...]:
    """Corner indices and fractional weights shared by the samplers."""
    xs_arr = np.asarray(xs, dtype=np.float64)
    ys_arr = np.asarray(ys, dtype=np.float64)
    col_f = np.clip((xs_arr - grid.x0) / grid.pixel_nm - 0.5, 0.0, grid.cols - 1.0)
    row_f = np.clip((ys_arr - grid.y0) / grid.pixel_nm - 0.5, 0.0, grid.rows - 1.0)
    r0 = np.floor(row_f).astype(np.int64)
    c0 = np.floor(col_f).astype(np.int64)
    r1 = np.minimum(r0 + 1, grid.rows - 1)
    c1 = np.minimum(c0 + 1, grid.cols - 1)
    return r0, c0, r1, c1, row_f - r0, col_f - c0


def bilinear_sample_many(
    image: np.ndarray, grid: Grid, xs: Sequence[float], ys: Sequence[float]
) -> np.ndarray:
    """Vectorized :func:`bilinear_sample` over matching coordinate arrays."""
    r0, c0, r1, c1, fr, fc = _bilinear_weights(grid, xs, ys)
    top = image[r0, c0] * (1 - fc) + image[r0, c1] * fc
    bottom = image[r1, c0] * (1 - fc) + image[r1, c1] * fc
    return top * (1 - fr) + bottom * fr


def bilinear_sample_stack(
    images: np.ndarray, grid: Grid, xs: Sequence[float], ys: Sequence[float]
) -> np.ndarray:
    """Sample the *same* nm points on a ``(B, H, W)`` image stack.

    One gather per corner covers the whole batch; each row is bit-for-bit
    identical to :func:`bilinear_sample_many` on that image (the per-point
    index/weight arithmetic is shared and the blend broadcasts the same
    elementwise operations).

    Returns:
        ``(B, n)`` sampled values.
    """
    stack = np.asarray(images)
    if stack.ndim != 3:
        raise RasterError(
            f"image stack must be 3-D (B, H, W), got shape {stack.shape}"
        )
    r0, c0, r1, c1, fr, fc = _bilinear_weights(grid, xs, ys)
    top = stack[:, r0, c0] * (1 - fc) + stack[:, r0, c1] * fc
    bottom = stack[:, r1, c0] * (1 - fc) + stack[:, r1, c1] * fc
    return top * (1 - fr) + bottom * fr

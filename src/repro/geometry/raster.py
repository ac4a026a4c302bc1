"""Rasterization of rectilinear polygons onto nanometre pixel grids.

The lithography simulator operates on mask images; this module maps
between nm-space geometry and pixel space.  A mask is first cut into
slabs (:class:`Slabs`): every polygon is split at each distinct vertex
y into bands, and the vertical edges crossing a band pair up, in x
order, into disjoint rectangles.  :func:`loop_slabs` does that for any
number of vertex loops in one pass of array operations, so neither the
OPC environment (which takes a mask's pupil band straight from its
slabs) nor :func:`rasterize` loops over polygons, bands or slabs.  The
antialiased raster is the sum of the slabs' exact pixel-coverage outer
products, accumulated in one ``bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


@dataclass(frozen=True, eq=False)
class Slabs:
    """A mask as disjoint axis-aligned rectangles ("slabs").

    Cutting a rectilinear polygon at every distinct vertex y gives
    horizontal bands inside which its cross-section is a fixed union of
    x-intervals; each interval of a band is one slab.  The antialiased
    raster of the polygon is exactly the sum of its slabs' pixel-coverage
    outer products, and its DFT factorizes per slab
    (:mod:`repro.litho.polygon_band`).

    Attributes:
        bounds: ``(S, 4)`` rows of ``(x_lo, x_hi, y_lo, y_hi)`` in nm,
            ordered by polygon, then band (ascending y), then x.
        owner: ``(S,)`` index of the polygon each slab came from.
    """

    bounds: np.ndarray
    owner: np.ndarray

    def __len__(self) -> int:
        return len(self.bounds)

    @classmethod
    def of(cls, polygons: Iterable[Polygon]) -> "Slabs":
        """The slabs of a collection of rectilinear polygons."""
        loops = [polygon.vertices for polygon in polygons]
        counts = np.array([len(loop) for loop in loops], dtype=np.int64)
        vertices = np.fromiter(
            chain.from_iterable(chain.from_iterable(loops)),
            dtype=np.float64, count=2 * int(counts.sum()),
        ).reshape(-1, 2)
        loop, after = loop_links(np.concatenate([[0], np.cumsum(counts)]))
        return loop_slabs(
            vertices[:, 0], vertices[:, 1], loop, after, np.arange(len(loops))
        )


def loop_links(starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(loop, after)`` of vertex loops: loop ``k`` is the vertices
    ``starts[k]:starts[k + 1]``; ``loop`` is each vertex's loop and
    ``after`` the index of the next vertex around it."""
    counts = starts[1:] - starts[:-1]
    loop = np.arange(len(counts)).repeat(counts)
    after = np.arange(1, starts[-1] + 1)
    filled = counts > 0
    after[starts[1:][filled] - 1] = starts[:-1][filled]
    return loop, after


def loop_slabs(
    xs: np.ndarray,
    ys: np.ndarray,
    loop: np.ndarray,
    after: np.ndarray,
    owners: np.ndarray,
) -> Slabs:
    """Slab decomposition of closed rectilinear vertex loops, in one pass.

    Vertex ``v`` is ``(xs[v], ys[v])`` on loop ``loop[v]`` (loops are
    contiguous and in polygon order), followed by vertex ``after[v]``
    (see :func:`loop_links`); loop ``k`` belongs to polygon
    ``owners[k]``.  Each loop's bands lie between consecutive distinct
    vertex ys ("cuts"), and a vertical edge crosses every band between
    its two end cuts.  The crossings of a band, sorted by x, pair up
    into its slabs: a closed loop crosses every band an even number of
    times.
    """
    # The cuts of every loop, ascending; band b of loop l lies between
    # cuts c and c + 1 of that loop, and b = c - l.
    order = np.lexsort((ys, loop))
    cut_y, cut_loop = ys[order], loop[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    new[1:] = (cut_y[1:] != cut_y[:-1]) | (cut_loop[1:] != cut_loop[:-1])
    cut_of_vertex = np.empty(len(order), dtype=np.int64)
    cut_of_vertex[order] = new.cumsum()
    cut_of_vertex -= loop + 1
    cut_y, cut_loop = cut_y[new], cut_loop[new]
    band_cut = (cut_loop[1:] == cut_loop[:-1]).nonzero()[0]
    # Every vertical edge crosses the bands between its end cuts.
    vertical = (xs == xs[after]).nonzero()[0]
    a, b = cut_of_vertex[vertical], cut_of_vertex[after[vertical]]
    low = np.minimum(a, b)
    spans = np.maximum(a, b) - low
    cross_x = xs[vertical].repeat(spans)
    cross_band = (low - spans.cumsum() + spans).repeat(spans)
    cross_band += np.arange(len(cross_band))
    ranked = np.lexsort((cross_x, cross_band))
    cross_x = cross_x[ranked]
    lower = band_cut[cross_band[ranked[::2]]]
    bounds = np.empty((len(lower), 4))
    bounds[:, 0] = cross_x[::2]
    bounds[:, 1] = cross_x[1::2]
    bounds[:, 2] = cut_y[lower]
    bounds[:, 3] = cut_y[lower + 1]
    return Slabs(bounds, owners[cut_loop[lower]])


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

    The image is the sum of the polygons' slabs' pixel-coverage outer
    products (:class:`Slabs`), accumulated slab by slab in one
    ``bincount``.  Polygons are assumed mutually disjoint (targets +
    SRAFs always are); the result is clipped to [0, 1] regardless.
    """
    image = _slab_coverage(Slabs.of(polygons).bounds, grid)
    if not antialias:
        return (image >= 0.5).astype(np.uint8)
    return image


def _slab_coverage(bounds: np.ndarray, grid: Grid) -> np.ndarray:
    """Sum of the exact pixel-coverage of ``(S, 4)`` slab bounds,
    clipped to [0, 1].

    Each slab covers the pixel block its window-clipped bounds touch,
    with weight ``wy[row] * wx[col]`` (the covered fraction along each
    axis).  Pixels are accumulated in slab order, so a pixel shared by
    two slabs' fringes sums them in that order.  Only covered pixels can
    leave [0, 1], so only they are clipped."""
    px = grid.pixel_nm
    x_lo = np.maximum(bounds[:, 0], grid.x0)
    x_hi = np.minimum(bounds[:, 1], grid.x0 + grid.cols * px)
    y_lo = np.maximum(bounds[:, 2], grid.y0)
    y_hi = np.minimum(bounds[:, 3], grid.y0 + grid.rows * px)
    kept = (x_lo < x_hi) & (y_lo < y_hi)
    cols, wx, width = _axis_coverage(x_lo[kept], x_hi[kept], grid.x0, px)
    rows, wy, height = _axis_coverage(y_lo[kept], y_hi[kept], grid.y0, px)
    # The pixels are listed slab by slab, row by row: slab s has
    # ``height[s]`` row entries of ``width[s]`` pixels each, and the
    # pixel ``k`` places into a row run is that slab's column entry k.
    row_width = width.repeat(height)
    row_start = row_width.cumsum() - row_width
    col_start = (width.cumsum() - width).repeat(height)
    step = np.arange(row_width.sum())
    col_entry = (col_start - row_start).repeat(row_width) + step
    pixels = (rows * grid.cols + cols[col_start] - row_start).repeat(row_width)
    pixels += step
    image = np.bincount(
        pixels, weights=wy.repeat(row_width) * wx[col_entry],
        minlength=grid.rows * grid.cols,
    ).astype(np.float64, copy=False)  # (integers if there is no weight)
    image[pixels] = np.clip(image[pixels], 0.0, 1.0)
    return image.reshape(grid.shape)


def _axis_coverage(lo: np.ndarray, hi: np.ndarray, origin: float, px: float):
    """Pixel indices and covered fractions of intervals along one axis.

    Returns ``(pixels, weights, counts)``: interval ``s`` touches the
    ``counts[s]`` pixels listed next in ``pixels``, covering fraction
    ``weights`` of each."""
    first = ((lo - origin) // px).astype(np.int64)
    counts = np.ceil((hi - origin) / px).astype(np.int64) - first
    owner = np.arange(len(counts)).repeat(counts)
    pixels = np.arange(len(owner)) - (counts.cumsum() - counts - first).repeat(counts)
    starts = origin + pixels * px
    weights = (
        np.minimum(starts + px, hi[owner]) - np.maximum(starts, lo[owner])
    ) / px
    return pixels, weights, counts


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

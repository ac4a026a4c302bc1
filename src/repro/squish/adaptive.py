"""Adaptive squish patterns: re-gridding to a fixed tensor shape.

Neural policies need constant input dimensions, but squish matrices vary
with window complexity.  Following Yang et al. (ASPDAC'19), we *split* the
widest grid intervals (occupancy unchanged, spacing halved) until the
matrix reaches the requested shape, or *merge* the narrowest adjacent
interval pairs when a window is more complex than the target shape.
Merging ORs occupancy — a conservative, slightly lossy reduction that
keeps every geometry edge visible.

:func:`fit_squish` re-grids a whole batch of grids (every window of a
state, each carrying one occupancy layer per pattern drawn on it) in one
set of array operations: the closed-form split of every grid at once and
one gather of the occupancy.  Only grids that must merge take a
per-grid loop.  :func:`adaptive_squish_tensor` is a batch of one.

The output tensor has three channels: occupancy, normalized column widths
(broadcast down columns), and normalized row heights (broadcast across
rows).  Spacings are normalized *relative to the uniform cell size*
(``value 1.0`` = the window divided evenly), so the sliver cells created
by nanometre-scale mask offsets stand out numerically — normalizing by
the full window extent would bury a 2 nm sliver in a 500 nm window at
4e-3, far below what a small CNN can separate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SquishError
from repro.squish.squish import SquishPattern


def adaptive_squish_tensor(
    pattern: SquishPattern, out_x: int, out_y: int
) -> np.ndarray:
    """Fixed-shape ``(3, out_y, out_x)`` tensor from a squish pattern.

    Spacing channels hold ``log1p(width / uniform cell)``, the uniform
    cell being the window divided evenly into ``out_x`` (``out_y``)
    cells: ``log(2)`` for a cell of uniform width, about 2.8 for one
    merged from sixteen uniform cells.  They are not bounded by 1.
    """
    ny, nx = pattern.matrix.shape
    occupancy, spacing_x, spacing_y = fit_squish(
        pattern.matrix[None, None], pattern.delta_x[None], np.array([nx]),
        pattern.delta_y[None], np.array([ny]), out_x, out_y,
    )
    shape = (out_y, out_x)
    return np.stack([
        occupancy[0, 0].astype(np.float64),
        np.broadcast_to(spacing_x, shape),
        np.broadcast_to(spacing_y.T, shape),
    ])


def fit_squish(
    matrices: np.ndarray,
    delta_x: np.ndarray,
    nx: np.ndarray,
    delta_y: np.ndarray,
    ny: np.ndarray,
    out_x: int,
    out_y: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-grid R squish grids, each carrying K occupancy layers.

    ``matrices`` is ``(R, K, Ly, Lx)``; grid ``r`` spans its first
    ``ny[r]`` rows and ``nx[r]`` columns, whose widths are the first
    entries of ``delta_x[r]`` / ``delta_y[r]``.  Splits and merges depend
    on the spacings only, so a grid's K layers are re-gridded together.

    Returns:
        ``(occupancy, spacing_x, spacing_y)``: ``(R, K, out_y, out_x)``
        uint8 occupancy and the ``(R, out_x)`` / ``(R, out_y)`` spacing
        channels, ``log1p(width / uniform cell)``.
    """
    if out_x < 2 or out_y < 2:
        raise SquishError(f"output shape too small: ({out_y}, {out_x})")

    matrix = matrices.astype(np.uint8)
    dx = delta_x.astype(np.float64)
    dy = delta_y.astype(np.float64)
    # Merging is the rare case (a window more complex than the output):
    # one grid at a time, x first, then y.  Splits only duplicate lines,
    # so splitting x after merging y gives what the reverse order would.
    for r in np.flatnonzero((nx > out_x) | (ny > out_y)):
        lines = matrix[r, :, : ny[r], : nx[r]]
        widths, heights = dx[r, : nx[r]], dy[r, : ny[r]]
        while len(widths) > out_x:
            lines, widths = _merge_narrowest(lines, widths, axis=-1)
        while len(heights) > out_y:
            lines, heights = _merge_narrowest(lines, heights, axis=-2)
        matrix[r, :, : len(heights), : len(widths)] = lines
        dx[r, : len(widths)] = widths
        dy[r, : len(heights)] = heights
    cols, dx = _split(dx, np.minimum(nx, out_x), out_x)
    rows, dy = _split(dy, np.minimum(ny, out_y), out_y)
    n_grids, n_layers, height, width = matrix.shape
    cells = (rows * width)[:, :, None] + cols[:, None, :]
    layers = np.arange(n_grids * n_layers).reshape(n_grids, n_layers, 1, 1)
    occupancy = matrix.reshape(-1)[layers * (height * width) + cells[:, None]]

    uniform_w = dx.sum(axis=1) / out_x
    uniform_h = dy.sum(axis=1) / out_y
    # log1p compresses the wide dynamic range (slivers ~0.03 of a uniform
    # cell, merged cells ~16 of one) into a CNN-friendly scale while
    # keeping the mapping monotone and invertible (expm1).
    return (
        occupancy,
        np.log1p(dx / uniform_w[:, None]),
        np.log1p(dy / uniform_h[:, None]),
    )


def _split(
    deltas: np.ndarray, counts: np.ndarray, target: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split every row's ``counts[r] <= target`` widths into ``target``.

    Repeatedly halving the widest interval, the leftmost on a tie, has a
    closed form.  Every halving of width ``w`` in interval ``i`` happens
    in (``w`` descending, ``i`` ascending) order, and interval ``i``
    contributes ``2**j`` halvings of width ``d_i / 2**j``.  Taking a
    row's first ``target - count`` of them gives each interval's piece
    count ``c``; with ``k = floor(log2 c)`` its first ``2 (c - 2**k)``
    pieces are ``d / 2**(k+1)`` wide and the rest ``d / 2**k``.

    Returns:
        ``(source, widths)``, both ``(R, target)``: the interval each
        output cell comes from, and its width.
    """
    n_rows, n = deltas.shape
    padding = np.arange(n) >= counts[:, None]
    # Zero-width padding sorts after every real interval.
    deltas = np.where(padding, 0.0, deltas)
    splits = target - counts
    n_levels = int(splits.max()).bit_length()
    offsets = np.arange(n_rows)[:, None]
    owner, level = np.divmod(np.arange(n * n_levels), n_levels)
    # The key order is owner-major, so a stable sort breaks width ties
    # by interval, as the one-at-a-time halving does.
    order = np.argsort(-np.ldexp(deltas[:, owner], -level), axis=1, kind="stable")
    available = 1 << level[order]
    before = np.cumsum(available, axis=1) - available
    taken = np.empty(available.size, dtype=np.int64)
    taken[order + offsets * (n * n_levels)] = np.minimum(
        np.maximum(splits[:, None] - before, 0), available
    )
    pieces = 1 + taken.reshape(n_rows, n, n_levels).sum(axis=2)
    pieces[padding] = 0

    flat = np.repeat(np.arange(pieces.size), pieces.ravel())
    first = (np.cumsum(pieces, axis=1) - pieces).ravel()[flat]
    c = pieces.ravel()[flat]
    k = np.frexp(c)[1] - 1
    position = np.tile(np.arange(target), n_rows) - first
    exps = -k - (position < 2 * (c - (1 << k)))
    widths = np.ldexp(deltas.ravel()[flat], exps)
    source = flat.reshape(n_rows, target) - offsets * n
    return source, widths.reshape(n_rows, target)


def _merge_narrowest(
    matrix: np.ndarray, deltas: np.ndarray, axis: int
) -> tuple[np.ndarray, np.ndarray]:
    pair_widths = deltas[:-1] + deltas[1:]
    k = int(np.argmin(pair_widths))
    new_deltas = np.concatenate([deltas[:k], [pair_widths[k]], deltas[k + 2 :]])
    merged = np.take(matrix, k, axis=axis) | np.take(matrix, k + 1, axis=axis)
    matrix = np.delete(matrix, k + 1, axis=axis)
    np.moveaxis(matrix, axis, 0)[k] = merged
    return matrix, new_deltas

"""Adaptive squish patterns: re-gridding to a fixed tensor shape.

Neural policies need constant input dimensions, but squish matrices vary
with window complexity.  Following Yang et al. (ASPDAC'19), we *split* the
widest grid intervals (occupancy unchanged, spacing halved) until the
matrix reaches the requested shape, or *merge* the narrowest adjacent
interval pairs when a window is more complex than the target shape.
Merging ORs occupancy — a conservative, slightly lossy reduction that
keeps every geometry edge visible.

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
    return adaptive_squish_tensors(
        pattern.matrix[None], pattern.delta_x, pattern.delta_y, out_x, out_y
    )[0]


def adaptive_squish_tensors(
    matrices: np.ndarray,
    delta_x: np.ndarray,
    delta_y: np.ndarray,
    out_x: int,
    out_y: int,
) -> np.ndarray:
    """``(K, 3, out_y, out_x)`` tensors for K patterns on one scanline grid.

    Splits and merges depend on the spacings only, so patterns that share
    a grid are re-gridded together, each exactly as
    :func:`adaptive_squish_tensor` would on its own.
    """
    if out_x < 2 or out_y < 2:
        raise SquishError(f"output shape too small: ({out_y}, {out_x})")

    matrix = matrices.astype(np.uint8)
    dx = delta_x.astype(np.float64)
    dy = delta_y.astype(np.float64)

    matrix, dx = _fit_axis(matrix, dx, out_x, axis=-1)
    matrix, dy = _fit_axis(matrix, dy, out_y, axis=-2)

    uniform_w = dx.sum() / out_x
    uniform_h = dy.sum() / out_y
    tensor = np.empty((len(matrix), 3, out_y, out_x), dtype=np.float64)
    tensor[:, 0] = matrix
    # log1p compresses the wide dynamic range (slivers ~0.03 of a uniform
    # cell, merged cells ~16 of one) into a CNN-friendly scale while
    # keeping the mapping monotone and invertible (expm1).
    tensor[:, 1] = np.log1p(dx / uniform_w)[None, :]
    tensor[:, 2] = np.log1p(dy / uniform_h)[:, None]
    return tensor


def _fit_axis(
    matrix: np.ndarray, deltas: np.ndarray, target: int, axis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split / merge along one matrix axis until ``len(deltas) == target``.

    Splitting repeatedly halves the widest interval, the leftmost on a
    tie.  That has a closed form: every halving of width ``w`` in
    interval ``i`` happens in (``w`` descending, ``i`` ascending) order,
    and interval ``i`` contributes ``2**j`` halvings of width
    ``d_i / 2**j``.  Taking the first ``target - len`` of them gives each
    interval's piece count ``c``; with ``k = floor(log2 c)`` its first
    ``2 (c - 2**k)`` pieces are ``d / 2**(k+1)`` wide and the rest
    ``d / 2**k``.
    """
    splits = target - len(deltas)
    if splits > 0:
        n, n_levels = len(deltas), splits.bit_length()
        owner, level = np.divmod(np.arange(n * n_levels), n_levels)
        order = np.lexsort((owner, -np.ldexp(deltas[owner], -level)))
        available = (1 << level)[order]
        before = np.cumsum(available) - available
        taken = np.empty_like(available)
        taken[order] = np.minimum(np.maximum(splits - before, 0), available)
        pieces = 1 + taken.reshape(n, n_levels).sum(axis=1)
        k = np.frexp(pieces)[1] - 1
        reps = np.empty(2 * n, dtype=np.int64)
        reps[0::2] = 2 * (pieces - (1 << k))
        reps[1::2] = pieces - reps[0::2]
        exps = np.repeat(-k, 2)
        exps[0::2] -= 1
        deltas = np.repeat(np.ldexp(np.repeat(deltas, 2), exps), reps)
        matrix = np.repeat(matrix, pieces, axis=axis)
    while len(deltas) > target:
        matrix, deltas = _merge_narrowest(matrix, deltas, axis)
    return matrix, deltas


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

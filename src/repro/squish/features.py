"""CAMO node-feature encoding.

For each segment, a window (500 nm in the paper) is centred at the control
point and squish-encoded twice on a *shared* scanline grid (the union of
mask-edge and target-edge scanlines):

* channels 0-2 — adaptive squish of the current *mask* (targets moved by
  their offsets, plus SRAFs): occupancy, dx, dy;
* channels 3-5 — adaptive squish of the *target* patterns on the same
  grid.

The paper describes the second tensor as the mask re-encoded "with
additional scanlines at the edge of the target patterns to highlight the
edge movements"; encoding the target itself on the union grid realizes
that intent in the most learnable form — every cell where the mask has
moved off the target shows up as an occupancy difference between channels
0 and 3, which a small CNN can read directly.  Because both patterns share
the scanline grid, their adaptive re-gridding stays cell-aligned.

One pass per state: :meth:`NodeFeatureEncoder.encode_all` encodes every
segment window of a state with one set of array operations, never a loop
over windows (:class:`PolygonTable` flattens the mask's cleaned vertex
loops, :meth:`~repro.geometry.mask_edit.MaskState.mask_vertices`, once,
and builds no ``Polygon``; the scanlines, occupancy and re-gridding of
all windows are batched; only a window more complex than the output
shape merges in a per-window loop).
:meth:`~NodeFeatureEncoder.encode_all_population` puts all P lockstep
members of a segment on *one* grid (the target edges plus every member's
mask edges).  The union grid refines each member's own grid, so the
encoded geometry is unchanged and the target channels are encoded once
per segment.  With a single state it is exactly the per-window grid, so
P=1 is bit-for-bit :meth:`~NodeFeatureEncoder.encode_all`.

RL-OPC's original 3-channel encoding (mask only) is exposed separately for
the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import FEATURE_WINDOW_NM
from repro.errors import SquishError
from repro.geometry.mask_edit import MaskState, vertex_loops
from repro.geometry.segmentation import Segment
from repro.squish.adaptive import fit_squish
from repro.squish.scanlines import axis_scanlines
from repro.squish.squish import PolygonTable, squish_occupancy


@dataclass(frozen=True)
class NodeFeatureEncoder:
    """Encodes per-segment feature tensors from a mask state.

    Attributes:
        window_nm: Edge length of the square feature window.
        out_size: Output tensor edge (paper: 128 for via, 64 for metal).
        channels: 6 for CAMO's doubled encoding, 3 for RL-OPC style.
    """

    window_nm: float = FEATURE_WINDOW_NM
    out_size: int = 64
    channels: int = 6

    def __post_init__(self) -> None:
        if self.window_nm <= 0:
            raise SquishError("window_nm must be positive")
        if self.out_size < 4:
            raise SquishError("out_size must be at least 4")
        if self.channels not in (3, 6):
            raise SquishError("channels must be 3 (mask only) or 6 (CAMO)")

    def _encode(
        self, states: Sequence[MaskState], segments: Sequence[Segment]
    ) -> np.ndarray:
        """``(P, n, channels, s, s)`` tensors: every segment window of
        every state in one pass.

        A 6-channel encode has one grid per window, shared by every
        member's mask and the targets: the window borders plus every
        vertex of every polygon overlapping the window.  A 3-channel
        encode has one grid per (member, window), from that member's
        mask alone.
        """
        n_members, n, size = len(states), len(segments), self.out_size
        sources = [state.mask_vertices() for state in states]
        if self.channels == 6:
            sources.append(vertex_loops(states[0].clip.targets))
        table = PolygonTable.of(sources)
        half = self.window_nm / 2
        centres = np.array([seg.control for seg in segments], dtype=np.float64)
        bounds = np.concatenate([centres - half, centres + half], axis=1)
        if self.channels == 6:
            n_layers, layer_of = len(sources), table.source[None]
        else:
            bounds = np.tile(bounds, (n_members, 1))
            member = np.repeat(np.arange(n_members), n)[:, None]
            n_layers, layer_of = 1, np.where(member == table.source, 0, -1)
        x0, y0, x1, y1 = table.bboxes.T
        wx0, wy0, wx1, wy1 = (column[:, None] for column in bounds.T)
        overlap = (x0 < wx1) & (wx0 < x1) & (y0 < wy1) & (wy0 < y1)
        layer_of = np.where(overlap, layer_of, -1)
        seen = (layer_of >= 0)[:, table.owner]
        xs, nx = axis_scanlines(wx0[:, 0], wx1[:, 0], table.vertices[:, 0], seen)
        ys, ny = axis_scanlines(wy0[:, 0], wy1[:, 0], table.vertices[:, 1], seen)
        occupancy, spacing_x, spacing_y = fit_squish(
            squish_occupancy(xs, ys, table.edges, layer_of, n_layers),
            np.diff(xs, axis=1), nx - 1, np.diff(ys, axis=1), ny - 1,
            size, size,
        )
        grids = (n_members, n) if self.channels == 3 else (1, n)
        out = np.empty((n_members, n, self.channels // 3, 3, size, size))
        if self.channels == 3:
            out[:, :, 0, 0] = occupancy.reshape(n_members, n, size, size)
        else:
            out[:, :, 0, 0] = occupancy[:, :-1].swapaxes(0, 1)
            out[:, :, 1, 0] = occupancy[:, -1]
        out[:, :, :, 1] = spacing_x.reshape(*grids, 1, 1, size)
        out[:, :, :, 2] = spacing_y.reshape(*grids, 1, size, 1)
        return out.reshape(n_members, n, self.channels, size, size)

    def encode_segment(self, state: MaskState, segment: Segment) -> np.ndarray:
        """Feature tensor ``(channels, out_size, out_size)`` for one node."""
        return self._encode([state], [segment])[0, 0]

    def encode_all(self, state: MaskState) -> np.ndarray:
        """Feature tensors for every segment: ``(n, channels, s, s)``."""
        return self._encode([state], state.segments)[0]

    # -- population batching -------------------------------------------------
    def encode_all_population(
        self, states: Sequence[MaskState]
    ) -> np.ndarray:
        """Feature tensors for P lockstep states: ``(P, n, channels, s, s)``.

        The population members must share one clip (the lockstep training
        invariant).  A 6-channel encode puts every member on one grid per
        window, so the target channels are encoded once and broadcast; a
        3-channel encode gives every member its own grids.
        """
        if not states:
            raise SquishError("population encoding needs at least one state")
        segments = states[0].segments
        if any(len(state.segments) != len(segments) for state in states[1:]):
            raise SquishError(
                "population members must share one clip's segments"
            )
        return self._encode(states, segments)

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

Population batching: :meth:`NodeFeatureEncoder.encode_all_population`
encodes all P population members of a segment through *one* scanline
union (the target edges plus every member's mask edges).  The union grid
is a refinement of each member's own grid, so the encoded geometry is
unchanged, and the target channels become identical across members — one
target encode per segment replaces P.  With a single state the union
degenerates to exactly the per-window grid, so P=1 encodings are
bit-for-bit identical to :meth:`encode_all`.

Every encode extracts the mask and target polygons' bounding boxes,
vertices and vertical edges once per state (:class:`PolygonTable`); the
per-window work is array arithmetic on those tables, and the patterns
sharing a window's grid are re-gridded together.

RL-OPC's original 3-channel encoding (mask only) is exposed separately for
the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import FEATURE_WINDOW_NM
from repro.errors import SquishError
from repro.geometry.mask_edit import MaskState
from repro.geometry.rect import Rect
from repro.geometry.segmentation import Segment
from repro.squish.adaptive import adaptive_squish_tensors
from repro.squish.scanlines import window_scanlines
from repro.squish.squish import PolygonTable


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

    def _window(self, segment: Segment) -> Rect:
        cx, cy = segment.control
        return Rect.from_center(cx, cy, self.window_nm, self.window_nm)

    def _encode_window(
        self, window: Rect, masks: list[PolygonTable], targets: PolygonTable
    ) -> np.ndarray:
        """``(len(masks), channels, s, s)`` tensors for one window.

        Every mask (and, for 6 channels, the targets) is encoded on one
        scanline grid: the window borders plus every vertex of every
        polygon overlapping the window.  For a single mask this is the
        mask grid refined by the target edges, and vice versa.
        """
        mask_ids = [table.overlapping(window) for table in masks]
        tables = list(zip(masks, mask_ids))
        if self.channels == 6:
            tables.append((targets, targets.overlapping(window)))
        vertices = [table.vertices[i] for table, ids in tables for i in ids]
        xs, ys = _grid(window, vertices)
        matrices = np.stack(
            [table.occupancy(ids, xs, ys) for table, ids in tables]
        )
        tensors = adaptive_squish_tensors(
            matrices, np.diff(xs), np.diff(ys), self.out_size, self.out_size
        )
        if self.channels == 3:
            return tensors
        return np.concatenate(
            [tensors[:-1], np.broadcast_to(tensors[-1:], tensors[:-1].shape)],
            axis=1,
        )

    def encode_segment(self, state: MaskState, segment: Segment) -> np.ndarray:
        """Feature tensor ``(channels, out_size, out_size)`` for one node."""
        return self._encode_window(
            self._window(segment), [_mask_table(state)], _target_table(state)
        )[0]

    def encode_all(self, state: MaskState) -> np.ndarray:
        """Feature tensors for every segment: ``(n, channels, s, s)``."""
        masks, targets = [_mask_table(state)], _target_table(state)
        return np.stack(
            [
                self._encode_window(self._window(seg), masks, targets)[0]
                for seg in state.segments
            ]
        )

    # -- population batching -------------------------------------------------
    def encode_all_population(
        self, states: Sequence[MaskState]
    ) -> np.ndarray:
        """Feature tensors for P lockstep states: ``(P, n, channels, s, s)``.

        The population members must share one clip (the lockstep training
        invariant); each segment is encoded through one scanline union
        (target edges + every member's mask edges), so its target
        channels are encoded once and broadcast.  3-channel encoders have
        no cross-member sharing to exploit and fall back to per-state
        :meth:`encode_all`.
        """
        if not states:
            raise SquishError("population encoding needs at least one state")
        if self.channels == 3:
            return np.stack([self.encode_all(state) for state in states])
        segments = states[0].segments
        if any(len(state.segments) != len(segments) for state in states[1:]):
            raise SquishError(
                "population members must share one clip's segments"
            )
        masks = [_mask_table(state) for state in states]
        targets = _target_table(states[0])
        return np.stack(
            [
                self._encode_window(self._window(seg), masks, targets)
                for seg in segments
            ],
            axis=1,
        )


def _mask_table(state: MaskState) -> PolygonTable:
    return PolygonTable.of(state.mask_polygons())


def _target_table(state: MaskState) -> PolygonTable:
    return PolygonTable.of(state.clip.targets)


def _grid(
    window: Rect, vertices: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Scanlines at the window borders and every given vertex inside it."""
    points = np.concatenate(vertices) if vertices else np.empty((0, 2))
    return window_scanlines(window, points[:, 0], points[:, 1])

"""Mask reconstruction from per-segment offsets, as arrays.

OPC in this project is *edge-based*: the target polygon boundary is
fragmented once (see :mod:`repro.geometry.segmentation`) and each fragment
carries an accumulated offset along its outward normal.  This module turns
``(fragments, offsets)`` back into the rectilinear mask, inserting
perpendicular jogs where neighbouring fragments sit at different offsets
and intersecting offset lines at corners.

Everything that does not depend on the offsets is built once per clip
(:class:`FragmentArrays`): each fragment's level and normal sign, and a
vertex template that says which fragment's offset line (or which fixed
coordinate) every corner and jog vertex takes.  A mask state then turns
its offsets into vertex loops, cleans them exactly as
:class:`~repro.geometry.polygon.Polygon` does (consecutive duplicates, the
wrap duplicate and collinear middles go; a degenerate loop raises the same
:class:`~repro.errors.GeometryError`), and decomposes them into slabs
(:class:`~repro.geometry.raster.Slabs`), all in a few array operations
over every polygon at once.  The slabs are what the lithography
simulator images; :meth:`MaskState.mask_polygons` builds ``Polygon``
objects only when a caller wants them (squish encoding, IO, figures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.constants import MAX_SEGMENT_OFFSET_NM
from repro.errors import GeometryError
from repro.geometry.layout import Clip
from repro.geometry.polygon import Polygon
from repro.geometry.raster import Slabs, loop_links, loop_slabs
from repro.geometry.segmentation import Segment


@dataclass(frozen=True, eq=False)
class FragmentArrays:
    """The offset-independent half of a clip's mask.

    Attributes:
        level: ``(n,)`` coordinate each fragment sits at with zero
            offset (y for horizontal fragments, x for vertical ones).
        sign: ``(n,)`` +1 or -1: the outward normal along that axis.
        x_source, y_source: ``(V,)`` vertex template.  Vertex ``v`` of
            the raw loops is ``(values[x_source[v]], values[y_source[v]])``
            with ``values = concat(level + offsets * sign, constants)``.
        constants: the fixed coordinates of the template (jog positions).
        starts: ``(D + 1,)`` raw-vertex bounds of the D fragmented loops.
        after: ``(V,)`` the next raw vertex around each loop.
        polygons: ``(D,)`` mask index of each fragmented loop.
        static: ``{mask index: polygon}`` for the polygons that do not
            move (SRAFs, unfragmented targets).
        static_slabs: their slabs, owned by their mask indices.
        n_polygons: the number of polygons in the mask.
    """

    level: np.ndarray
    sign: np.ndarray
    x_source: np.ndarray
    y_source: np.ndarray
    constants: np.ndarray
    starts: np.ndarray
    after: np.ndarray
    polygons: np.ndarray
    static: dict[int, Polygon]
    static_slabs: Slabs
    n_polygons: int

    @classmethod
    def of(cls, clip: Clip, segments: list[Segment]) -> "FragmentArrays":
        """Arrays of a clip's mask: the targets, each rebuilt from its
        fragments (in list order), then the SRAFs."""
        groups: dict[int, list[int]] = {}
        for k, segment in enumerate(segments):
            groups.setdefault(segment.poly_index, []).append(k)
        moving = [index for index in range(len(clip.targets)) if index in groups]
        static = {
            index: polygon
            for index, polygon in enumerate((*clip.targets, *clip.srafs))
            if index not in moving
        }
        return cls._build(
            segments, [groups[index] for index in moving], moving, static
        )

    @classmethod
    def _build(cls, segments, loops, polygons, static) -> "FragmentArrays":
        n = len(segments)
        x_source: list[int] = []
        y_source: list[int] = []
        constants: list[float] = []
        starts = [0]
        for loop in loops:
            if len(loop) < 4:
                raise GeometryError(
                    "need at least 4 fragments to rebuild a polygon"
                )
            for i, j in zip(loop, loop[1:] + loop[:1]):
                seg_i, seg_j = segments[i], segments[j]
                if seg_i.axis != seg_j.axis:
                    # Corner: intersect the two offset lines.
                    x, y = (j, i) if seg_i.axis == "h" else (i, j)
                    x_source.append(x)
                    y_source.append(y)
                    continue
                # Same-axis junction: jog at the shared fragment boundary.
                shared = n + len(constants)
                constants.append(seg_i.b[0] if seg_i.axis == "h" else seg_i.b[1])
                if seg_i.axis == "h":
                    x_source += [shared, shared]
                    y_source += [i, j]
                else:
                    x_source += [i, j]
                    y_source += [shared, shared]
            starts.append(len(x_source))
        x_source, y_source = np.array(x_source), np.array(y_source)
        _, after = loop_links(np.array(starts))
        # Consecutive vertices share an offset line or a jog coordinate,
        # so every edge of every mask is axis-parallel.
        if not np.all((x_source == x_source[after]) | (y_source == y_source[after])):
            raise GeometryError("fragments are not in boundary order")
        fixed = sorted(static)
        static_slabs = Slabs.of(static[index] for index in fixed)
        return cls(
            level=np.array([s.level for s in segments], dtype=np.float64),
            sign=np.array(
                [s.normal[1] if s.axis == "h" else s.normal[0] for s in segments],
                dtype=np.float64,
            ),
            x_source=x_source.astype(np.int64),
            y_source=y_source.astype(np.int64),
            constants=np.array(constants, dtype=np.float64),
            starts=np.array(starts, dtype=np.int64),
            after=after,
            polygons=np.array(polygons, dtype=np.int64),
            static=static,
            static_slabs=Slabs(
                static_slabs.bounds,
                np.array(fixed, dtype=np.int64)[static_slabs.owner],
            ),
            n_polygons=len(polygons) + len(static),
        )

    def _raw_vertices(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(xs, ys)`` of the fragmented loops before cleanup."""
        values = np.concatenate([self.level + offsets * self.sign, self.constants])
        return values[self.x_source], values[self.y_source]

    def slabs(self, offsets: np.ndarray) -> Slabs:
        """The mask's slabs in mask polygon order (see :class:`Slabs`).

        Raises:
            GeometryError: a loop degenerates; the error is the one
                ``Polygon`` raises for the first such loop in mask order.
        """
        xs, ys = self._raw_vertices(offsets)
        # ``Polygon`` drops consecutive duplicates, then a last vertex
        # equal to the first: one vertex per cyclic run of equal ones.
        # Keeping each run's last vertex leaves the same sequence.
        keep = (xs != xs[self.after]) | (ys != ys[self.after])
        xs, ys, starts = _compress(xs, ys, self.starts, keep)
        # Then collinear middles, judged against the deduplicated loop.
        _, after = loop_links(starts)
        same_x, same_y = xs == xs[after], ys == ys[after]
        middle = np.empty(len(xs), dtype=bool)
        middle[after] = (same_x & same_x[after]) | (same_y & same_y[after])
        xs, ys, starts = _compress(xs, ys, starts, ~middle)
        loop, after = loop_links(starts)
        _require_polygons(xs, ys, starts, loop, after)
        moved = loop_slabs(xs, ys, loop, after, self.polygons)
        if not self.static:
            return moved
        bounds = np.concatenate([moved.bounds, self.static_slabs.bounds])
        owner = np.concatenate([moved.owner, self.static_slabs.owner])
        order = owner.argsort(kind="stable")
        return Slabs(bounds[order], owner[order])

    def polygons_of(self, offsets: np.ndarray) -> tuple[Polygon, ...]:
        """The mask as ``Polygon`` objects, in mask order: each
        fragmented loop through ``Polygon``'s own cleanup, the static
        polygons as they are."""
        xs, ys = self._raw_vertices(offsets)
        rebuilt = dict(self.static)
        for index, lo, hi in zip(self.polygons, self.starts[:-1], self.starts[1:]):
            rebuilt[int(index)] = Polygon(
                tuple(zip(xs[lo:hi].tolist(), ys[lo:hi].tolist()))
            )
        return tuple(rebuilt[index] for index in range(self.n_polygons))


def _compress(xs, ys, starts, keep):
    """Keep the flagged vertices; return the new loop bounds."""
    kept = np.concatenate([[0], keep.cumsum()])
    return xs[keep], ys[keep], kept[starts]


def _require_polygons(xs, ys, starts, loop, after) -> None:
    """Raise the :class:`GeometryError` ``Polygon`` raises for the first
    cleaned loop with fewer than 4 vertices or zero area.

    The shoelace terms are summed in vertex order, as ``Polygon`` sums
    them (a cumulative sum along zero-padded rows).  ``Polygon`` re-sums
    a loop it reverses; on integer-nm geometry both sums are exact.
    (Every edge is axis-parallel by construction; :class:`FragmentArrays`
    checks its vertex template for that once.)
    """
    counts = starts[1:] - starts[:-1]
    terms = np.zeros((len(counts), max(counts.max(initial=0), 1)))
    terms[loop, np.arange(len(xs)) - starts[loop]] = (
        xs * ys[after] - xs[after] * ys
    )
    bad = (counts < 4) | (terms.cumsum(axis=1)[:, -1] / 2.0 == 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise GeometryError(
            "polygon degenerates after vertex cleanup" if counts[k] < 4
            else "zero-area polygon"
        )


def apply_offsets(
    segments: list[Segment], offsets: np.ndarray | list[float]
) -> Polygon:
    """Rebuild one polygon from its CCW fragment list and offset vector.

    ``offsets[i]`` is the accumulated outward displacement (nm, negative =
    inward) of ``segments[i]``.  Fragments must all belong to the same
    polygon and be given in boundary order.
    """
    offs = np.asarray(offsets, dtype=np.float64)
    if len(segments) != len(offs):
        raise GeometryError(
            f"{len(segments)} segments but {len(offs)} offsets"
        )
    fragments = FragmentArrays._build(
        segments, [list(range(len(segments)))], [0], {}
    )
    return fragments.polygons_of(offs)[0]


@dataclass
class MaskState:
    """The evolving mask: a clip, its fragmentation, and accumulated offsets.

    Immutable-in-practice: :meth:`moved` returns a new state.  Offsets are
    clamped to ``+/- max_offset`` so reconstructed polygons stay simple.
    ``fragments`` (built from the clip and segments unless given) is
    shared by every state moved from this one.
    """

    clip: Clip
    segments: list[Segment]
    offsets: np.ndarray
    max_offset: int = MAX_SEGMENT_OFFSET_NM
    fragments: FragmentArrays | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.fragments is None:
            self.fragments = FragmentArrays.of(self.clip, self.segments)

    @classmethod
    def initial(
        cls,
        clip: Clip,
        segments: list[Segment],
        bias_nm: float = 0.0,
        max_offset: int = MAX_SEGMENT_OFFSET_NM,
        fragments: FragmentArrays | None = None,
    ) -> "MaskState":
        """Starting state; ``bias_nm`` applies a uniform outward bias
        (the paper starts via masks 3 nm outward)."""
        offsets = np.full(len(segments), float(bias_nm), dtype=np.float64)
        return cls(
            clip=clip, segments=segments, offsets=offsets,
            max_offset=max_offset, fragments=fragments,
        )

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def moved(self, deltas: np.ndarray | list[float]) -> "MaskState":
        """New state with ``deltas`` (nm per segment) added and clamped."""
        deltas_arr = np.asarray(deltas, dtype=np.float64)
        if deltas_arr.shape != self.offsets.shape:
            raise GeometryError(
                f"delta shape {deltas_arr.shape} != offsets shape {self.offsets.shape}"
            )
        new_offsets = np.minimum(
            np.maximum(self.offsets + deltas_arr, -self.max_offset),
            self.max_offset,
        )
        return MaskState(
            clip=self.clip,
            segments=self.segments,
            offsets=new_offsets,
            max_offset=self.max_offset,
            fragments=self.fragments,
        )

    @cached_property
    def slabs(self) -> Slabs:
        """The current mask's slabs, computed once per state."""
        return self.fragments.slabs(self.offsets)

    def mask_polygons(self) -> tuple[Polygon, ...]:
        """Current mask: offset target polygons plus untouched SRAFs."""
        return self._polygons

    @cached_property
    def _polygons(self) -> tuple[Polygon, ...]:
        return self.fragments.polygons_of(self.offsets)

"""Boundary fragmentation: polygons -> movable segments.

Follows the paper's conventions:

* **via** patterns: each polygon edge is one segment, with the EPE measure
  point at the edge centre;
* **metal** patterns: edges along the primary (horizontal) routing direction
  are evenly split so that measure points sit 60 nm apart at segment centres
  and any remainder is absorbed by the two line-end fragments; edges along
  the secondary direction (line ends) form a single segment each, without a
  measure point.

Segments are emitted in counter-clockwise boundary order per polygon, which
is what :mod:`repro.geometry.mask_edit` needs to rebuild mask polygons from
per-segment offsets.

:func:`fragment_clip` remembers the fragmentation of the last
:data:`FRAGMENTED_CLIPS_KEPT` clip objects, so an engine's environment and
the service's verifier, which both fragment a request's clip, do the work
once; each still derives the segments from the clip alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.constants import MEASURE_SPACING_NM
from repro.errors import SegmentationError
from repro.geometry.layout import Clip
from repro.geometry.polygon import Edge, Polygon


@dataclass(frozen=True)
class Segment:
    """One movable fragment of a polygon boundary.

    Attributes:
        index: Global segment index within the clip.
        poly_index: Which target polygon this fragment belongs to.
        a, b: Fragment endpoints in CCW walk order.
        axis: ``'h'`` or ``'v'``.
        normal: Unit outward normal ``(nx, ny)``.
        control: Fragment midpoint — the control point used for feature
            windows and graph construction.
        measure_point: EPE measure-point location on the *target* edge, or
            ``None`` for unmeasured (line-end) fragments.
    """

    index: int
    poly_index: int
    a: tuple[float, float]
    b: tuple[float, float]
    axis: str
    normal: tuple[int, int]
    control: tuple[float, float]
    measure_point: tuple[float, float] | None

    @property
    def length(self) -> float:
        return abs(self.b[0] - self.a[0]) + abs(self.b[1] - self.a[1])

    @property
    def level(self) -> float:
        """The coordinate the fragment moves: y for 'h' segments, x for 'v'."""
        return self.a[1] if self.axis == "h" else self.a[0]


def fragment_polygon(
    polygon: Polygon,
    poly_index: int,
    layer: str,
    start_index: int = 0,
    spacing: float = MEASURE_SPACING_NM,
) -> list[Segment]:
    """Fragment one polygon boundary into CCW-ordered segments."""
    if layer == "via":
        splitter = _via_edge_fragments
    elif layer == "metal":
        splitter = lambda edge: _metal_edge_fragments(edge, spacing)  # noqa: E731
    else:
        raise SegmentationError(f"unknown layer kind: {layer!r}")

    segments: list[Segment] = []
    index = start_index
    for edge in polygon.edges():
        for a, b, measure in splitter(edge):
            control = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            segments.append(
                Segment(
                    index=index,
                    poly_index=poly_index,
                    a=a,
                    b=b,
                    axis=edge.axis,
                    normal=edge.outward_normal,
                    control=control,
                    measure_point=measure,
                )
            )
            index += 1
    return segments


FRAGMENTED_CLIPS_KEPT = 64
_fragmented: dict[tuple[int, float], tuple[Clip, tuple[Segment, ...]]] = {}
_fragmented_lock = threading.Lock()


def fragment_clip(clip: Clip, spacing: float = MEASURE_SPACING_NM) -> list[Segment]:
    """Fragment every target polygon of a clip (SRAFs are never fragmented).

    The result is memoized per clip object and spacing; every call gets
    its own list.
    """
    # An entry holds its clip, so no other object can take its id.
    key = (id(clip), spacing)
    with _fragmented_lock:
        entry = _fragmented.get(key)
    if entry is None:
        entry = (clip, tuple(_fragment_clip(clip, spacing)))
        with _fragmented_lock:
            _fragmented[key] = entry
            if len(_fragmented) > FRAGMENTED_CLIPS_KEPT:
                del _fragmented[next(iter(_fragmented))]
    return list(entry[1])


def _fragment_clip(clip: Clip, spacing: float) -> list[Segment]:
    segments: list[Segment] = []
    for poly_index, polygon in enumerate(clip.targets):
        segments.extend(
            fragment_polygon(
                polygon,
                poly_index,
                clip.layer,
                start_index=len(segments),
                spacing=spacing,
            )
        )
    if not segments:
        raise SegmentationError(f"clip {clip.name!r} produced no segments")
    return segments


def measure_points(segments: list[Segment]) -> list[tuple[float, float]]:
    """All measure-point locations, in segment order."""
    return [s.measure_point for s in segments if s.measure_point is not None]


_Fragment = tuple[tuple[float, float], tuple[float, float], tuple[float, float] | None]


def _via_edge_fragments(edge: Edge) -> list[_Fragment]:
    """Via rule: the whole edge is one fragment, measured at its centre."""
    return [(edge.a, edge.b, edge.midpoint)]


def _metal_edge_fragments(edge: Edge, spacing: float) -> list[_Fragment]:
    """Metal rule: split primary-direction (horizontal) edges at measure
    points spaced ``spacing`` apart; vertical edges are single unmeasured
    line-end fragments."""
    if edge.axis == "v":
        return [(edge.a, edge.b, None)]

    length = edge.length
    n_points = int(length // spacing)
    if n_points == 0:
        # Too short for an evenly-spaced point: single unmeasured fragment.
        return [(edge.a, edge.b, None)]

    y = edge.a[1]
    direction = edge.direction[0]  # +1 walking right, -1 walking left
    x_start = edge.a[0]
    margin = (length - (n_points - 1) * spacing) / 2
    # Measure points along the walk direction.
    points = [x_start + direction * (margin + i * spacing) for i in range(n_points)]
    # Fragment boundaries at midpoints between consecutive measure points.
    cuts = [x_start]
    for i in range(n_points - 1):
        cuts.append((points[i] + points[i + 1]) / 2)
    cuts.append(edge.b[0])

    fragments: list[_Fragment] = []
    for i in range(n_points):
        a = (cuts[i], y)
        b = (cuts[i + 1], y)
        fragments.append((a, b, (points[i], y)))
    return fragments

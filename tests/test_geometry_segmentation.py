"""Tests for boundary fragmentation (via and metal rules)."""

import pytest

from repro.errors import SegmentationError
from repro.geometry.layout import Clip
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.segmentation import (
    Segment,
    fragment_clip,
    fragment_polygon,
    measure_points,
)


def via_clip(n=1):
    targets = tuple(
        Polygon.from_rect(Rect.square(300 + 300 * i, 300, 70)) for i in range(n)
    )
    return Clip(name="t", bbox=Rect(0, 0, 2000, 2000), targets=targets, layer="via")


def metal_clip(width=60, length=600):
    wire = Polygon.from_rect(Rect(100, 100, 100 + length, 100 + width))
    return Clip(name="m", bbox=Rect(0, 0, 1500, 1500), targets=(wire,), layer="metal")


class TestViaFragmentation:
    def test_one_via_four_segments(self):
        segs = fragment_clip(via_clip(1))
        assert len(segs) == 4
        assert all(s.measure_point is not None for s in segs)

    def test_measure_points_at_edge_centers(self):
        segs = fragment_clip(via_clip(1))
        centers = {s.measure_point for s in segs}
        assert centers == {(300, 265), (335, 300), (300, 335), (265, 300)}

    def test_segments_in_boundary_order(self):
        segs = fragment_clip(via_clip(1))
        for s, t in zip(segs, segs[1:] + segs[:1]):
            assert s.b == t.a

    def test_multi_via_counts(self):
        segs = fragment_clip(via_clip(3))
        assert len(segs) == 12
        assert {s.poly_index for s in segs} == {0, 1, 2}

    def test_normals_outward(self):
        segs = fragment_clip(via_clip(1))
        cx, cy = 300, 300
        for s in segs:
            mx, my = s.control
            nx, ny = s.normal
            # The normal must point away from the via centre.
            assert (mx - cx) * nx + (my - cy) * ny > 0


class TestMetalFragmentation:
    def test_horizontal_edge_split_60nm(self):
        segs = fragment_clip(metal_clip(width=60, length=600))
        horiz = [s for s in segs if s.axis == "h"]
        vert = [s for s in segs if s.axis == "v"]
        # 600 nm edge -> 10 measure points each on top and bottom.
        assert len([s for s in horiz if s.measure_point]) == 20
        assert len(vert) == 2
        assert all(s.measure_point is None for s in vert)

    def test_measure_point_spacing(self):
        segs = fragment_clip(metal_clip(width=60, length=600))
        bottom = sorted(
            s.measure_point[0]
            for s in segs
            if s.measure_point and s.normal == (0, -1)
        )
        gaps = [b - a for a, b in zip(bottom, bottom[1:])]
        assert all(g == pytest.approx(60) for g in gaps)

    def test_remainder_absorbed_by_line_ends(self):
        # 150 nm edge -> 2 measure points, end fragments longer than middles.
        segs = fragment_clip(metal_clip(width=60, length=150))
        bottom = [s for s in segs if s.measure_point and s.normal == (0, -1)]
        assert len(bottom) == 2
        lengths = [s.length for s in bottom]
        assert sum(lengths) == pytest.approx(150)
        assert lengths[0] == pytest.approx(lengths[1])

    def test_short_edge_single_unmeasured(self):
        segs = fragment_clip(metal_clip(width=60, length=50))
        horiz = [s for s in segs if s.axis == "h"]
        assert all(s.measure_point is None for s in horiz)
        assert all(s.length == pytest.approx(50) for s in horiz)

    def test_boundary_order_closes(self):
        segs = fragment_clip(metal_clip())
        for s, t in zip(segs, segs[1:] + segs[:1]):
            assert s.b == t.a

    def test_control_points_are_midpoints(self):
        for s in fragment_clip(metal_clip()):
            assert s.control == (
                pytest.approx((s.a[0] + s.b[0]) / 2),
                pytest.approx((s.a[1] + s.b[1]) / 2),
            )


class TestHelpers:
    def test_measure_points_helper(self):
        segs = fragment_clip(via_clip(2))
        assert len(measure_points(segs)) == 8

    def test_unknown_layer_raises(self):
        poly = Polygon.from_rect(Rect.square(100, 100, 70))
        with pytest.raises(SegmentationError):
            fragment_polygon(poly, 0, "poly")

    def test_global_indices_unique_and_ordered(self):
        segs = fragment_clip(via_clip(3))
        assert [s.index for s in segs] == list(range(len(segs)))

    def test_segment_level(self):
        s = Segment(
            index=0,
            poly_index=0,
            a=(0, 5),
            b=(10, 5),
            axis="h",
            normal=(0, -1),
            control=(5, 5),
            measure_point=(5, 5),
        )
        assert s.level == 5


class TestFragmentMemo:
    def test_each_call_gets_its_own_list_of_the_same_segments(self):
        clip = metal_clip()
        first = fragment_clip(clip)
        first.clear()
        again = fragment_clip(clip)
        assert again and again == fragment_clip(clip)
        assert again is not fragment_clip(clip)
        assert fragment_clip(clip, spacing=30.0) != again

    def test_memo_keeps_the_last_clips_only(self):
        import repro.geometry.segmentation as segmentation

        clips = [
            via_clip(1) for _ in range(segmentation.FRAGMENTED_CLIPS_KEPT + 1)
        ]
        for clip in clips:
            fragment_clip(clip)
        kept = [entry[0] for entry in segmentation._fragmented.values()]
        assert len(kept) == segmentation.FRAGMENTED_CLIPS_KEPT
        assert all(any(c is clip for c in kept) for clip in clips[1:])
        assert not any(c is clips[0] for c in kept)

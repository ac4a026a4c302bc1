"""Tests for squish encoding, adaptive re-gridding and node features."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SquishError
from repro.geometry import (
    Clip,
    MaskState,
    Polygon,
    Rect,
    fragment_clip,
)
from repro.geometry.mask_edit import vertex_loops
from repro.constants import FEATURE_WINDOW_NM
from repro.data import metal_test_suite
from repro.squish import (
    NodeFeatureEncoder,
    PackedFeatures,
    SquishPattern,
    adaptive_squish_tensor,
    encode_squish,
    scanline_positions,
)
from repro.data import via_test_suite
from repro.squish.adaptive import _split
from repro.squish.scanlines import axis_scanlines
from repro.squish.squish import PolygonTable, squish_occupancy


WINDOW = Rect(0, 0, 100, 100)


def squares(*rects):
    return [Polygon.from_rect(r) for r in rects]


class TestScanlines:
    def test_window_borders_always_present(self):
        xs, ys = scanline_positions([], WINDOW)
        assert xs.tolist() == [0, 100]
        assert ys.tolist() == [0, 100]

    def test_polygon_edges_add_lines(self):
        polys = squares(Rect(20, 30, 60, 70))
        xs, ys = scanline_positions(polys, WINDOW)
        assert xs.tolist() == [0, 20, 60, 100]
        assert ys.tolist() == [0, 30, 70, 100]

    def test_outside_edges_ignored(self):
        polys = squares(Rect(-50, -50, 150, 20))  # only y=20 is inside
        xs, ys = scanline_positions(polys, WINDOW)
        assert xs.tolist() == [0, 100]
        assert ys.tolist() == [0, 20, 100]

    def test_extra_scanlines(self):
        xs, ys = scanline_positions([], WINDOW, extra_x=[33.0], extra_y=[66.0, 200.0])
        assert 33.0 in xs.tolist()
        assert 66.0 in ys.tolist()
        assert 200.0 not in ys.tolist()

    def test_duplicates_merged(self):
        polys = squares(Rect(20, 20, 60, 60), Rect(20, 70, 60, 90))
        xs, _ = scanline_positions(polys, WINDOW)
        assert xs.tolist() == [0, 20, 60, 100]


class TestSquishEncoding:
    def test_figure3_style_single_rect(self):
        """One rect in a window: 3x3 matrix with centre cell set."""
        pattern = encode_squish(squares(Rect(20, 30, 60, 70)), WINDOW)
        assert pattern.matrix.shape == (3, 3)
        assert pattern.matrix.tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
        assert pattern.delta_x.tolist() == [20, 40, 40]
        assert pattern.delta_y.tolist() == [30, 40, 30]

    def test_covered_area_matches_geometry(self):
        pattern = encode_squish(squares(Rect(20, 30, 60, 70)), WINDOW)
        assert pattern.covered_area == pytest.approx(40 * 40)

    def test_two_rects(self):
        pattern = encode_squish(
            squares(Rect(10, 10, 30, 30), Rect(60, 60, 90, 90)), WINDOW
        )
        assert pattern.covered_area == pytest.approx(20 * 20 + 30 * 30)

    def test_empty_window(self):
        pattern = encode_squish([], WINDOW)
        assert pattern.matrix.sum() == 0
        assert pattern.covered_area == 0

    def test_dense_roundtrip(self):
        pattern = encode_squish(squares(Rect(20, 30, 60, 70)), WINDOW)
        dense = pattern.to_dense(pixel_nm=10)
        assert dense.shape == (10, 10)
        assert dense.sum() * 100 == pytest.approx(1600)

    def test_extra_scanlines_do_not_change_area(self):
        base = encode_squish(squares(Rect(20, 30, 60, 70)), WINDOW)
        refined = encode_squish(
            squares(Rect(20, 30, 60, 70)), WINDOW, extra_x=[40.0], extra_y=[50.0]
        )
        assert refined.matrix.shape == (4, 4)
        assert refined.covered_area == pytest.approx(base.covered_area)

    def test_pattern_validation(self):
        with pytest.raises(SquishError):
            SquishPattern(
                matrix=np.zeros((2, 2), dtype=np.uint8),
                delta_x=np.ones(3),
                delta_y=np.ones(2),
                origin=(0, 0),
            )

    def test_width_height(self):
        pattern = encode_squish(squares(Rect(20, 30, 60, 70)), WINDOW)
        assert pattern.width == 100
        assert pattern.height == 100


class TestAdaptive:
    def pattern(self):
        return encode_squish(squares(Rect(20, 30, 60, 70)), WINDOW)

    def test_output_shape(self):
        tensor = adaptive_squish_tensor(self.pattern(), 16, 16)
        assert tensor.shape == (3, 16, 16)

    def test_occupancy_area_preserved_by_splitting(self):
        tensor = adaptive_squish_tensor(self.pattern(), 16, 16)
        occ, dx, dy = tensor
        # Spacing channels are log1p of uniform-cell units: invert with
        # expm1, then cell width in nm is rel * (W / out_x).
        rel_x = np.expm1(dx)
        rel_y = np.expm1(dy)
        area = float((occ * rel_x * rel_y).sum()) * (100 / 16) * (100 / 16)
        assert area == pytest.approx(1600)

    def test_spacing_channels_uniform_relative(self):
        tensor = adaptive_squish_tensor(self.pattern(), 16, 16)
        # Each row of decoded widths sums to out_x in uniform-cell units.
        assert np.expm1(tensor[1]).sum(axis=1).max() == pytest.approx(16.0)
        assert np.expm1(tensor[2]).sum(axis=0).max() == pytest.approx(16.0)

    def test_merge_path(self):
        """More scanlines than the target shape forces merging."""
        rects = [Rect(5 + 10 * i, 5, 12 + 10 * i, 95) for i in range(9)]
        pattern = encode_squish(squares(*rects), WINDOW)
        assert pattern.matrix.shape[1] > 8
        tensor = adaptive_squish_tensor(pattern, 8, 8)
        assert tensor.shape == (3, 8, 8)
        assert tensor[0].sum() > 0  # geometry still visible after merging

    def test_too_small_output_rejected(self):
        with pytest.raises(SquishError):
            adaptive_squish_tensor(self.pattern(), 1, 16)


def _in_window(polygons, window):
    return [p for p in polygons if p.bbox.intersects(window)]


def _window(encoder, segment):
    cx, cy = segment.control
    return Rect.from_center(cx, cy, encoder.window_nm, encoder.window_nm)


def _vertex_coords(polygons):
    return (
        [x for p in polygons for x, _ in p.vertices],
        [y for p in polygons for _, y in p.vertices],
    )


def _reference_encode_segment(encoder, state, segment):
    """CAMO's two encodings of one window, one squish pattern each: the
    mask with extra scanlines at the target vertices, and the targets
    with extra scanlines at the mask vertices."""
    window = _window(encoder, segment)
    mask_polys = _in_window(state.mask_polygons(), window)
    target_polys = _in_window(state.clip.targets, window)
    mask_x, mask_y = _vertex_coords(mask_polys)
    target_x, target_y = _vertex_coords(target_polys)
    size = encoder.out_size
    mask = encode_squish(mask_polys, window, extra_x=target_x, extra_y=target_y)
    target = encode_squish(target_polys, window, extra_x=mask_x, extra_y=mask_y)
    return np.concatenate(
        [
            adaptive_squish_tensor(mask, size, size),
            adaptive_squish_tensor(target, size, size),
        ]
    )


def via_state():
    clip = Clip(
        name="f",
        bbox=Rect(0, 0, 2000, 2000),
        targets=(
            Polygon.from_rect(Rect.square(500, 500, 70)),
            Polygon.from_rect(Rect.square(700, 500, 70)),
        ),
        layer="via",
    )
    segments = fragment_clip(clip)
    return MaskState.initial(clip, segments, bias_nm=3.0)


class TestNodeFeatures:
    def test_camo_six_channels(self):
        state = via_state()
        encoder = NodeFeatureEncoder(window_nm=500, out_size=32, channels=6)
        tensor = encoder.encode_segment(state, state.segments[0])
        assert tensor.shape == (6, 32, 32)

    def test_rlopc_three_channels(self):
        state = via_state()
        encoder = NodeFeatureEncoder(window_nm=500, out_size=32, channels=3)
        assert encoder.encode_segment(state, state.segments[0]).shape == (3, 32, 32)

    def test_encode_all_shape(self):
        state = via_state()
        encoder = NodeFeatureEncoder(window_nm=500, out_size=16, channels=6)
        feats = encoder.encode_all(state)
        assert feats.shape == (8, 6, 16, 16)

    def test_features_respond_to_mask_movement(self):
        state = via_state()
        encoder = NodeFeatureEncoder(window_nm=500, out_size=32, channels=6)
        before = encoder.encode_segment(state, state.segments[0])
        moved = state.moved(np.full(8, 4.0))
        after = encoder.encode_segment(moved, moved.segments[0])
        assert not np.allclose(before, after)

    def test_highlight_channels_differ_from_mask_channels(self):
        """With a moved mask, the target-edge scanlines must produce a
        different grid from the plain mask encoding."""
        state = via_state().moved(np.full(8, 4.0))
        encoder = NodeFeatureEncoder(window_nm=500, out_size=32, channels=6)
        tensor = encoder.encode_segment(state, state.segments[0])
        assert not np.allclose(tensor[:3], tensor[3:])

    def test_neighbor_via_visible_in_window(self):
        state = via_state()
        wide = NodeFeatureEncoder(window_nm=500, out_size=32, channels=3)
        narrow = NodeFeatureEncoder(window_nm=120, out_size=32, channels=3)
        # Segment 0 belongs to the via at (500, 500); the neighbour sits
        # 200 nm away so only the wide window sees both patterns.
        wide_occupied = wide.encode_segment(state, state.segments[0])[0].sum()
        narrow_occupied = narrow.encode_segment(state, state.segments[0])[0].sum()
        assert wide_occupied != narrow_occupied

    @pytest.mark.parametrize("out_size", [8, 32])
    def test_encode_all_matches_reference_on_moved_metal_clip(self, out_size):
        """The per-state tables, the shared scanline grid and the stacked
        re-gridding reproduce the one-pattern-at-a-time encoding bit for
        bit; out_size 8 forces merges, 32 forces splits."""
        clip = metal_test_suite()[0]
        segments = fragment_clip(clip)
        offsets = np.random.default_rng(7).integers(-6, 7, len(segments))
        state = MaskState.initial(clip, segments).moved(offsets.astype(float))
        encoder = NodeFeatureEncoder(out_size=out_size, channels=6)
        expected = np.stack(
            [_reference_encode_segment(encoder, state, seg) for seg in segments]
        )
        assert np.array_equal(encoder.encode_all(state), expected)

    def test_validation(self):
        with pytest.raises(SquishError):
            NodeFeatureEncoder(window_nm=-1)
        with pytest.raises(SquishError):
            NodeFeatureEncoder(out_size=2)
        with pytest.raises(SquishError):
            NodeFeatureEncoder(channels=4)


class TestPopulationEncoding:
    """Shared-scanline-union population encoding parity (the batched
    per-trajectory feature path used by population RL training)."""

    def encoder(self, channels=6):
        return NodeFeatureEncoder(window_nm=500, out_size=32, channels=channels)

    def population(self, deltas=(0.0, 2.0, -2.0)):
        base = via_state()
        return [base.moved(np.full(8, d)) for d in deltas]

    def test_single_member_is_bitwise_per_window(self):
        """P=1: the union degenerates to the per-window grid, so the
        population path must be bit-for-bit the per-window encoding."""
        encoder = self.encoder()
        state = via_state()
        assert np.array_equal(
            encoder.encode_all_population([state]),
            encoder.encode_all(state)[None],
        )

    def test_identical_members_match_per_window(self):
        """Members with identical masks add no scanlines to each other's
        union — every row equals the per-window encoding (the shared
        start state of population training)."""
        encoder = self.encoder()
        state = via_state()
        feats = encoder.encode_all_population([state, state, state])
        reference = encoder.encode_all(state)
        for row in feats:
            assert np.array_equal(row, reference)

    def test_population_matches_per_window_on_union_grid(self):
        """Parity against per-window encoding: each member's tensors
        equal the per-window encode run on the same scanline union."""
        encoder = self.encoder()
        states = self.population()
        feats = encoder.encode_all_population(states)
        assert feats.shape == (3, 8, 6, 32, 32)
        for j, segment in enumerate(states[0].segments):
            window = _window(encoder, segment)
            target_polys = _in_window(states[0].clip.targets, window)
            union_x, union_y = _vertex_coords(target_polys)
            for state in states:
                xs, ys = _vertex_coords(_in_window(state.mask_polygons(), window))
                union_x, union_y = union_x + xs, union_y + ys
            for p, state in enumerate(states):
                mask_polys = _in_window(state.mask_polygons(), window)
                expected_mask = adaptive_squish_tensor(
                    encode_squish(
                        mask_polys, window, extra_x=union_x, extra_y=union_y
                    ),
                    32,
                    32,
                )
                assert np.array_equal(feats[p, j, :3], expected_mask)

    def test_target_channels_shared_across_members(self):
        """The payoff: on the union grid the target encoding is identical
        for every member (computed once, broadcast)."""
        encoder = self.encoder()
        feats = encoder.encode_all_population(self.population())
        for p in range(1, feats.shape[0]):
            assert np.array_equal(feats[0, :, 3:], feats[p, :, 3:])

    def test_distinct_members_encode_distinct_masks(self):
        encoder = self.encoder()
        feats = encoder.encode_all_population(self.population())
        assert not np.array_equal(feats[0, :, :3], feats[1, :, :3])

    def test_three_channel_population_falls_back(self):
        encoder = self.encoder(channels=3)
        states = self.population()
        feats = encoder.encode_all_population(states)
        for state, row in zip(states, feats):
            assert np.array_equal(row, encoder.encode_all(state))

    def test_empty_population_rejected(self):
        with pytest.raises(SquishError):
            self.encoder().encode_all_population([])


@given(
    x0=st.integers(min_value=1, max_value=40),
    y0=st.integers(min_value=1, max_value=40),
    w=st.integers(min_value=5, max_value=50),
    h=st.integers(min_value=5, max_value=50),
)
def test_property_squish_area_exact(x0, y0, w, h):
    """Squish encoding is lossless for any rect inside the window."""
    rect = Rect(x0, y0, min(x0 + w, 99), min(y0 + h, 99))
    pattern = encode_squish([Polygon.from_rect(rect)], WINDOW)
    assert pattern.covered_area == pytest.approx(rect.area)


@given(
    out=st.integers(min_value=4, max_value=48),
    x0=st.integers(min_value=1, max_value=40),
    w=st.integers(min_value=5, max_value=50),
)
def test_property_adaptive_split_preserves_area(out, x0, w):
    rect = Rect(x0, 20, min(x0 + w, 99), 70)
    pattern = encode_squish([Polygon.from_rect(rect)], WINDOW)
    if pattern.matrix.shape[0] > out or pattern.matrix.shape[1] > out:
        return  # merging is lossy by design; only splitting is exact
    tensor = adaptive_squish_tensor(pattern, out, out)
    occ, dx, dy = tensor
    area = float((occ * np.expm1(dx) * np.expm1(dy)).sum()) * (100 / out) * (100 / out)
    assert area == pytest.approx(rect.area, rel=1e-9)


def _split_widest_reference(matrix, deltas, axis):
    """Halve the widest interval (the first on a tie), duplicating its
    occupancy line: one step of the iterative adaptive split."""
    k = int(np.argmax(deltas))
    half = deltas[k] / 2
    new_deltas = np.concatenate([deltas[:k], [half, half], deltas[k + 1 :]])
    line = matrix[:, k : k + 1] if axis == 1 else matrix[k : k + 1, :]
    matrix = np.concatenate(
        [
            matrix[:, :k] if axis == 1 else matrix[:k, :],
            line,
            matrix[:, k:] if axis == 1 else matrix[k:, :],
        ],
        axis=axis,
    )
    return matrix, new_deltas


# Widths drawn from a small set collide and sit powers of two apart, so
# halvings of different intervals tie; arbitrary floats cover the rest.
SPLIT_WIDTHS = st.one_of(
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 12.0, 96.0]),
    st.floats(min_value=0.01, max_value=500.0),
)


@settings(max_examples=400, deadline=None)
@given(
    widths=st.lists(SPLIT_WIDTHS, min_size=1, max_size=12),
    growth=st.floats(min_value=1.0, max_value=4.0),
    axis=st.sampled_from([0, 1]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(widths=[4.0, 4.0, 4.0], growth=1.0, axis=0, seed=0)
@example(widths=[2.0, 4.0, 1.0, 8.0, 4.0], growth=4.0, axis=1, seed=1)
@example(widths=[3.0, 6.0, 3.0, 12.0], growth=2.5, axis=0, seed=2)
def test_closed_form_split_matches_iterative(widths, growth, axis, seed):
    """The closed-form split equals halving the widest interval one at a
    time, bit for bit, for targets from the input length (a no-op) up to
    four times it."""
    deltas = np.asarray(widths, dtype=np.float64)
    target = int(len(deltas) * growth)
    shape = (len(deltas), 5) if axis == 0 else (5, len(deltas))
    matrix = np.random.default_rng(seed).integers(0, 2, shape, dtype=np.uint8)

    expected_matrix, expected_deltas = matrix, deltas
    while len(expected_deltas) < target:
        expected_matrix, expected_deltas = _split_widest_reference(
            expected_matrix, expected_deltas, axis
        )
    source, got_deltas = _split(deltas[None], np.array([len(deltas)]), target)
    got_matrix = np.take(matrix, source[0], axis=axis)
    got_deltas = got_deltas[0]
    assert np.array_equal(got_matrix, expected_matrix)
    assert np.array_equal(got_deltas, expected_deltas)
    if target == len(deltas):
        assert np.array_equal(got_matrix, matrix)
        assert np.array_equal(got_deltas, deltas)


def _occupancy_reference(vertex_loops, xs, ys):
    """Even-odd cell-centre test, one vertical edge at a time."""
    cx = (xs[:-1] + xs[1:]) / 2
    cy = (ys[:-1] + ys[1:]) / 2
    occupied = np.zeros((len(cy), len(cx)), dtype=bool)
    for verts in vertex_loops:
        inside = np.zeros_like(occupied)
        n = len(verts)
        for i in range(n):
            (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
            if ax != bx:
                continue
            y_lo, y_hi = (ay, by) if ay < by else (by, ay)
            row_hit = (cy >= y_lo) & (cy < y_hi)
            col_hit = cx < ax
            inside ^= row_hit[:, None] & col_hit[None, :]
        occupied |= inside
    return occupied.astype(np.uint8)


L_SHAPE = [(10, 10), (60, 10), (60, 30), (30, 30), (30, 80), (10, 80)]
U_SHAPE = [
    (20, 20), (80, 20), (80, 90), (65, 90), (65, 40), (35, 40), (35, 90), (20, 90)
]
COLLINEAR = [(15, 15), (40, 15), (70, 15), (70, 45), (70, 75), (15, 75), (15, 40)]


@pytest.mark.parametrize(
    "loops",
    [
        [L_SHAPE],
        [U_SHAPE],
        [U_SHAPE, [(30, 50), (75, 50), (75, 70), (30, 70)]],
        [[(-40, 60), (140, 60), (140, 130), (-40, 130)], L_SHAPE[::-1]],
        [COLLINEAR],
    ],
    ids=["L", "U", "overlapping", "clipped-by-border", "collinear"],
)
def test_vectorized_occupancy_matches_per_edge_loop(loops):
    """The batched ``(rows x E) @ (E x cols)`` crossing count gives the
    same occupancy as XOR-ing one edge at a time, on the polygons' own
    grid and on a refined one."""
    coords = np.asarray([v for loop in loops for v in loop], dtype=np.float64)
    table = PolygonTable.of(
        [vertex_loops([SimpleNamespace(vertices=loop) for loop in loops])]
    )
    layer_of = np.zeros((1, len(loops)), dtype=np.intp)
    refine = np.linspace(3.0, 97.0, 11)
    lo, hi = np.array([0.0]), np.array([100.0])
    for extra in (np.empty(0), refine):
        xs, _ = axis_scanlines(lo, hi, np.concatenate([coords[:, 0], extra]))
        ys, _ = axis_scanlines(lo, hi, np.concatenate([coords[:, 1], extra]))
        got = squish_occupancy(xs, ys, table.edges, layer_of, 1)
        assert np.array_equal(got[0, 0], _occupancy_reference(loops, xs[0], ys[0]))
        assert got.any()


# -- Parity corpus -------------------------------------------------------
# An independent reference for the batched encoder: the one-window-at-a-
# time encoding it replaced (scanlines, occupancy and re-gridding of one
# window per call, the closed-form split on one grid).  ``encode_squish``
# and ``adaptive_squish_tensor`` share the batched core, so they cannot
# serve as the reference.


def _ref_axis_scanlines(values, lo, hi, tolerance=1e-9):
    inside = values[(lo < values) & (values < hi)]
    ordered = np.sort(np.concatenate(([lo, hi], inside)))
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(ordered) > tolerance
    return ordered[keep]


def _ref_vertical_edges(vertices):
    verts = np.asarray(vertices, dtype=np.float64)
    a, b = verts, np.roll(verts, -1, axis=0)
    vertical = a[:, 0] == b[:, 0]
    a, b = a[vertical], b[vertical]
    return np.stack(
        [a[:, 0], np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])],
        axis=1,
    )


def _ref_occupancy(edge_sets, xs, ys):
    cx = (xs[:-1] + xs[1:]) / 2
    cy = (ys[:-1] + ys[1:]) / 2
    occupied = np.zeros((len(cy), len(cx)), dtype=np.uint8)
    for edges in edge_sets:
        x, y_lo, y_hi = edges.T
        row_hit = (y_lo[:, None] <= cy) & (cy < y_hi[:, None])
        col_hit = cx < x[:, None]
        crossings = row_hit.T.astype(np.int64) @ col_hit.astype(np.int64)
        occupied |= (crossings & 1).astype(np.uint8)
    return occupied


def _ref_merge_narrowest(matrix, deltas, axis):
    pair_widths = deltas[:-1] + deltas[1:]
    k = int(np.argmin(pair_widths))
    new_deltas = np.concatenate([deltas[:k], [pair_widths[k]], deltas[k + 2 :]])
    merged = np.take(matrix, k, axis=axis) | np.take(matrix, k + 1, axis=axis)
    matrix = np.delete(matrix, k + 1, axis=axis)
    np.moveaxis(matrix, axis, 0)[k] = merged
    return matrix, new_deltas


def _ref_fit_axis(matrix, deltas, target, axis):
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
        matrix, deltas = _ref_merge_narrowest(matrix, deltas, axis)
    return matrix, deltas


def _ref_tensors(matrices, delta_x, delta_y, size):
    """``(K, 3, size, size)`` tensors of K patterns on one grid."""
    matrix, dx = _ref_fit_axis(matrices.astype(np.uint8), delta_x, size, -1)
    matrix, dy = _ref_fit_axis(matrix, delta_y, size, -2)
    tensor = np.empty((len(matrix), 3, size, size), dtype=np.float64)
    tensor[:, 0] = matrix
    tensor[:, 1] = np.log1p(dx / (dx.sum() / size))[None, :]
    tensor[:, 2] = np.log1p(dy / (dy.sum() / size))[:, None]
    return tensor


def _ref_window(window, seen, size):
    """Tensors of every polygon layer on one shared window grid, from
    the vertices of all of them."""
    points = np.asarray(
        [v for polys in seen for p in polys for v in p.vertices],
        dtype=np.float64,
    ).reshape(-1, 2)
    xs = _ref_axis_scanlines(points[:, 0], window.x0, window.x1)
    ys = _ref_axis_scanlines(points[:, 1], window.y0, window.y1)
    matrices = np.stack(
        [
            _ref_occupancy([_ref_vertical_edges(p.vertices) for p in polys], xs, ys)
            for polys in seen
        ]
    )
    return _ref_tensors(matrices, np.diff(xs), np.diff(ys), size)


def _ref_encode(encoder, states, segments=None):
    """``(P, n, channels, s, s)``: one window at a time, the 6-channel
    grid shared by every member and the targets, the 3-channel grid
    per member."""
    segments = states[0].segments if segments is None else segments
    size = encoder.out_size
    masks = [state.mask_polygons() for state in states]
    rows = []
    for segment in segments:
        window = _window(encoder, segment)
        if encoder.channels == 3:
            rows.append(
                np.concatenate(
                    [_ref_window(window, [_in_window(m, window)], size) for m in masks]
                )
            )
            continue
        layers = [*masks, states[0].clip.targets]
        tensors = _ref_window(
            window, [_in_window(polys, window) for polys in layers], size
        )
        rows.append(
            np.concatenate(
                [tensors[:-1], np.broadcast_to(tensors[-1:], tensors[:-1].shape)],
                axis=1,
            )
        )
    return np.stack(rows, axis=1)


def _assert_identical(got, expected):
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


def _corpus_states(clip):
    """Start state, three seeded random move sets, every segment at
    +24 nm and every segment at -24 nm."""
    segments = fragment_clip(clip)
    start = MaskState.initial(clip, segments)
    rng = np.random.default_rng(sum(map(ord, clip.name)))
    moved = [
        start.moved(rng.integers(-8, 9, len(segments)).astype(float))
        for _ in range(3)
    ]
    bound = float(start.max_offset)
    return [
        start,
        *moved,
        start.moved(np.full(len(segments), bound)),
        start.moved(np.full(len(segments), -bound)),
    ]


CORPUS = via_test_suite() + metal_test_suite()


@pytest.mark.parametrize("clip", CORPUS, ids=[clip.name for clip in CORPUS])
def test_batched_encoder_matches_per_window_reference(clip):
    """Every test clip, six states each, channels 6 and 3: ``encode_all``
    (P=1) and ``encode_all_population`` (P=3) are bit-for-bit the
    one-window-at-a-time encoding, at the layer's own output size and at
    sizes 4 and 8, which force merges."""
    states = _corpus_states(clip)
    layer_size = 32 if clip.layer == "via" else 24
    for channels in (6, 3):
        for size in (4, layer_size):
            encoder = NodeFeatureEncoder(out_size=size, channels=channels)
            for state in states:
                _assert_identical(
                    encoder.encode_all(state), _ref_encode(encoder, [state])[0]
                )
        for size in (8, layer_size):
            encoder = NodeFeatureEncoder(out_size=size, channels=channels)
            for population in (states[1:4], [states[0], states[4], states[5]]):
                _assert_identical(
                    encoder.encode_all_population(population),
                    _ref_encode(encoder, population),
                )


@pytest.mark.parametrize("channels", [6, 3])
def test_batched_encoder_matches_reference_at_paper_size(channels):
    """Output size 128 (the paper's via encoding): every via test clip,
    P=1 and P=3, and one metal clip."""
    encoder = NodeFeatureEncoder(out_size=128, channels=channels)
    for clip in [*via_test_suite(), metal_test_suite()[7]]:
        states = _corpus_states(clip)
        _assert_identical(
            encoder.encode_all(states[1]), _ref_encode(encoder, states[1:2])[0]
        )
        _assert_identical(
            encoder.encode_all_population(states[1:4]),
            _ref_encode(encoder, states[1:4]),
        )


def test_encode_segment_matches_reference():
    state = _corpus_states(metal_test_suite()[3])[2]
    for channels in (6, 3):
        encoder = NodeFeatureEncoder(out_size=24, channels=channels)
        for segment in state.segments[::7]:
            _assert_identical(
                encoder.encode_segment(state, segment),
                _ref_encode(encoder, [state], [segment])[0, 0],
            )


def test_polygons_touching_the_window_border_match_reference():
    """Polygons whose edge lies exactly on a window border (left out of
    the window) and one straddling it, next to a window's own via."""
    via = Polygon.from_rect(Rect.square(500, 500, 70))
    probe = Clip("probe", Rect(0, 0, 2000, 2000), (via,), layer="via")
    cx, cy = fragment_clip(probe)[0].control
    half = FEATURE_WINDOW_NM / 2
    clip = Clip(
        "border",
        Rect(0, 0, 2000, 2000),
        (
            via,
            Polygon.from_rect(Rect(cx + half, cy - 20, cx + half + 70, cy + 50)),
            Polygon.from_rect(Rect(cx - 60, cy + half, cx + 10, cy + half + 70)),
            Polygon.from_rect(Rect(cx - half - 30, cy - 90, cx - half + 40, cy - 20)),
        ),
        layer="via",
    )
    states = _corpus_states(clip)
    for channels in (6, 3):
        encoder = NodeFeatureEncoder(out_size=32, channels=channels)
        for state in states:
            _assert_identical(
                encoder.encode_all(state), _ref_encode(encoder, [state])[0]
            )
        _assert_identical(
            encoder.encode_all_population(states[1:4]),
            _ref_encode(encoder, states[1:4]),
        )


@pytest.mark.parametrize("size", [4, 8, 32])
def test_single_pattern_tensor_matches_reference(size):
    """``adaptive_squish_tensor(encode_squish(...))`` for a window with no
    polygons, a polygon touching the border and a merge-heavy window.
    Unlike a node window, a single pattern takes scanlines from every
    polygon it is given, overlapping the window or not."""
    cases = [
        [],
        squares(Rect(100, 20, 160, 80)),
        squares(Rect(-30, 40, 0, 60), Rect(20, 30, 60, 70)),
        squares(*[Rect(5 + 10 * i, 5 + i, 12 + 10 * i, 95) for i in range(9)]),
    ]
    for polys in cases:
        got = adaptive_squish_tensor(encode_squish(polys, WINDOW), size, size)
        _assert_identical(got, _ref_window(WINDOW, [polys], size)[0])


class _PolygonPath:
    """A mask state whose encoder input is read off its ``Polygon``
    objects, as the encoder read it before it took the state's vertex
    loops."""

    def __init__(self, state):
        self.clip = state.clip
        self._state = state

    def mask_vertices(self):
        return vertex_loops(self._state.mask_polygons())


@functools.cache
def _corpus_start(index):
    clip = CORPUS[index]
    return MaskState.initial(clip, fragment_clip(clip))


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, len(CORPUS) - 1), data=st.data())
def test_vertex_loops_encode_as_the_polygons(index, data):
    """Random suite states: features from the states' cleaned vertex
    loops are bit for bit (signed zeros too) those from their polygons,
    for one state and for a population of two, at 6 and 3 channels."""
    start = _corpus_start(index)
    bound = start.max_offset
    states = []
    for _ in range(2):
        pool = data.draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=4))
        picks = data.draw(st.lists(
            st.integers(0, len(pool) - 1),
            min_size=start.n_segments, max_size=start.n_segments,
        ))
        offsets = np.asarray([pool[k] for k in picks], dtype=np.float64)
        states.append(start.moved(offsets - start.offsets))
    size = 32 if start.clip.layer == "via" else 24
    for channels in (6, 3):
        encoder = NodeFeatureEncoder(out_size=size, channels=channels)
        for population in (states[:1], states):
            got = encoder.encode_all_population(population)
            expected = encoder._encode(
                [_PolygonPath(state) for state in population], start.segments
            )
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, len(CORPUS) - 1), data=st.data())
def test_packed_features_unpack_bit_for_bit(index, data):
    """Random via and metal suite states: ``PackedFeatures.of(t).dense()``
    is ``t`` as int64 bits, for ``encode_all`` and for
    ``encode_all_population`` at P = 1 and 2, at 6 and 3 channels; the
    packed planes are uint8 with one spacing pair per tensor row."""
    start = _corpus_start(index)
    bound = start.max_offset
    states = [
        start.moved(np.asarray(data.draw(st.lists(
            st.integers(-bound, bound),
            min_size=start.n_segments, max_size=start.n_segments,
        )), dtype=np.float64) - start.offsets)
        for _ in range(2)
    ]
    size = 32 if start.clip.layer == "via" else 24
    for channels in (6, 3):
        encoder = NodeFeatureEncoder(out_size=size, channels=channels)
        tensors = [
            encoder.encode_all(states[0]),
            encoder.encode_all_population(states[:1]),
            encoder.encode_all_population(states),
        ]
        for dense in tensors:
            packed = PackedFeatures.of(dense)
            lead = dense.shape[:-3]
            assert packed.occupancy.dtype == np.uint8
            assert packed.occupancy.shape == (*lead, channels // 3, size, size)
            assert packed.spacing_x.shape == packed.spacing_y.shape == (*lead, size)
            unpacked = packed.dense()
            assert unpacked.dtype == dense.dtype
            assert np.array_equal(unpacked.view(np.int64), dense.view(np.int64))

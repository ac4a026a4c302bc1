"""The array mask path against its per-polygon references.

``MaskState`` turns offsets into cleaned vertex loops and slabs with
array operations over the clip's ``FragmentArrays``; ``rasterize`` and
the pupil band (``polygon_band_coeffs``) read those slabs.  Here every
piece is held bit for bit to the Python loops it replaced
(``geometry_reference``): the fragment-by-fragment ``apply_offsets``
with ``Polygon``'s cleanup, the band-by-band slab generator, the
slab-by-slab raster and the per-call interval DFT.

Offsets are integers within ``+/- max_offset`` on every via and metal
suite clip.  They are drawn from a few values per example, so that
neighbouring fragments often share an offset: a zero-length jog, then
collinear vertices, which the cleanup must drop exactly as ``Polygon``
does.  Degenerate input (offsets that collapse small polygons) must
raise the same ``GeometryError`` as the reference, or give the same
slabs when it does not.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometry_reference as reference
from repro.constants import MAX_SEGMENT_OFFSET_NM
from repro.data.metal_bench import metal_test_suite
from repro.data.via_bench import via_test_suite
from repro.errors import GeometryError
from repro.geometry.layout import Clip
from repro.geometry.mask_edit import FragmentArrays, MaskState
from repro.geometry.polygon import Polygon
from repro.geometry.raster import Grid, Slabs, rasterize
from repro.geometry.rect import Rect
from repro.geometry.segmentation import fragment_clip
from repro.litho.polygon_band import interval_coverage_dft, polygon_band_coeffs
from repro.litho.simulator import LithoConfig, LithographySimulator

CLIPS = list(via_test_suite()) + list(metal_test_suite())


@functools.cache
def simulator() -> LithographySimulator:
    return LithographySimulator(LithoConfig(backend="numpy"))


@functools.cache
def setting(index: int):
    """Clip, its initial mask state, grid and focus pupil band."""
    clip = CLIPS[index]
    sim = simulator()
    grid = sim.grid_for(clip)
    band = sim.kernel_set(0.0).band_spectra(grid.shape)
    return clip, MaskState.initial(clip, fragment_clip(clip)), grid, band


def offsets_from(data, n_segments: int, bound: int) -> np.ndarray:
    """Integer offsets in ``[-bound, bound]``, each picked from a pool of
    at most four values, so equal neighbours are common."""
    pool = data.draw(st.lists(
        st.integers(-bound, bound), min_size=1, max_size=4
    ))
    picks = data.draw(st.lists(
        st.integers(0, len(pool) - 1),
        min_size=n_segments, max_size=n_segments,
    ))
    return np.asarray([pool[k] for k in picks], dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, len(CLIPS) - 1), data=st.data())
def test_suite_masks_match_the_reference(index, data):
    clip, start, grid, band = setting(index)
    offsets = offsets_from(data, start.n_segments, MAX_SEGMENT_OFFSET_NM)
    state = start.moved(offsets - start.offsets)
    polygons = reference.mask_polygons(state)

    assert state.mask_polygons() == polygons
    assert np.array_equal(state.slabs.bounds, reference.slabs(polygons))
    assert np.array_equal(
        polygon_band_coeffs([state.slabs], grid, band),
        reference.band_coeffs([polygons], grid, band),
    )
    assert np.array_equal(
        rasterize(state.mask_polygons(), grid),
        reference.rasterize(polygons, grid),
    )


def small_clip(layer: str) -> Clip:
    """Polygons small enough for +/-12 nm offsets to collapse them."""
    if layer == "via":
        targets = (
            Polygon.from_rect(Rect(100, 100, 116, 116)),
            Polygon.from_rect(Rect(200, 100, 212, 130)),
        )
    else:
        targets = (
            Polygon.from_rect(Rect(100, 100, 160, 108)),
            Polygon(((100, 200), (160, 200), (160, 208), (108, 208),
                     (108, 240), (100, 240))),
        )
    return Clip(name=layer, bbox=Rect(0, 0, 400, 400), targets=targets,
                layer=layer)


def reference_outcome(clip, segments, offsets):
    """The reference slabs of a clip's mask, or the error it raises."""
    by_poly: dict[int, list[int]] = {}
    for k, segment in enumerate(segments):
        by_poly.setdefault(segment.poly_index, []).append(k)
    try:
        polygons = [
            reference.apply_offsets(
                [segments[k] for k in by_poly[index]], offsets[by_poly[index]]
            )
            for index in range(len(clip.targets))
        ]
    except GeometryError as exc:
        return str(exc)
    return reference.slabs(polygons)


@settings(max_examples=500, deadline=None)
@given(layer=st.sampled_from(["via", "metal"]), data=st.data())
def test_degenerate_offsets_raise_as_the_reference(layer, data):
    clip = small_clip(layer)
    segments = fragment_clip(clip, spacing=8.0)
    fragments = FragmentArrays.of(clip, segments)
    offsets = offsets_from(data, len(segments), 12)
    expected = reference_outcome(clip, segments, offsets)
    if isinstance(expected, str):
        with pytest.raises(GeometryError) as caught:
            fragments.slabs(offsets)
        assert str(caught.value) == expected
    else:
        assert np.array_equal(fragments.slabs(offsets).bounds, expected)


def test_a_collapsed_via_raises():
    clip = small_clip("via")
    segments = fragment_clip(clip)
    offsets = np.zeros(len(segments))
    offsets[:4] = [-8.0, 0.0, -8.0, 0.0]  # bottom and top meet
    fragments = FragmentArrays.of(clip, segments)
    with pytest.raises(GeometryError, match="degenerates after vertex cleanup"):
        fragments.slabs(offsets)
    assert reference_outcome(clip, segments, offsets) == (
        "polygon degenerates after vertex cleanup"
    )


def test_a_bow_tie_raises_zero_area():
    """A wire whose right half is pushed past its own top edge: the two
    halves wind in opposite senses, and the shoelace sum is exactly 0."""
    wire = Polygon.from_rect(Rect(0, 0, 40, 10))
    clip = Clip(name="bow", bbox=Rect(-50, -50, 90, 60), targets=(wire,),
                layer="metal")
    segments = fragment_clip(clip, spacing=20.0)
    assert [s.axis for s in segments] == ["h", "h", "v", "h", "h", "v"]
    offsets = np.array([0.0, -20.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(GeometryError, match="zero-area polygon"):
        FragmentArrays.of(clip, segments).slabs(offsets)
    assert reference_outcome(clip, segments, offsets) == "zero-area polygon"


def test_srafs_and_unfragmented_targets_keep_mask_order():
    """Static polygons (an SRAF, a target without fragments) keep their
    place among the moving ones, as objects and as slabs."""
    clip = small_clip("via").with_srafs(
        (Polygon.from_rect(Rect(20, 20, 30, 60)),)
    )
    segments = [s for s in fragment_clip(clip) if s.poly_index == 1]
    state = MaskState(clip, segments, np.full(len(segments), 2.0))
    polygons = state.mask_polygons()
    assert polygons[0] is clip.targets[0] and polygons[2] is clip.srafs[0]
    assert polygons[1] == reference.apply_offsets(segments, state.offsets)
    assert np.array_equal(state.slabs.bounds, reference.slabs(polygons))
    assert list(state.slabs.owner) == [0, 1, 2]


def test_polygon_slabs_and_raster_edge_cases():
    grid = Grid(0.0, 0.0, 4.0, 50, 50)
    u_shape = Polygon(((10, 10), (90, 10), (90, 90), (70, 90), (70, 30),
                       (30, 30), (30, 90), (10, 90)))
    crossing = Polygon.from_rect(Rect(-13.0, 150.5, 21.25, 230.0))
    polygons = (u_shape, crossing)
    assert np.array_equal(Slabs.of(polygons).bounds, reference.slabs(polygons))
    assert list(Slabs.of(polygons).owner) == [0, 0, 0, 1]
    for antialias in (True, False):
        got = rasterize(polygons, grid, antialias=antialias)
        want = reference.rasterize(polygons, grid, antialias=antialias)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not rasterize((), grid).any()
    assert len(Slabs.of(())) == 0


def test_interval_dft_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    lo = np.concatenate([rng.uniform(0, 60, 40), [2.0, 2.25, 0.0, 5.5]])
    hi = np.concatenate([np.minimum(lo[:40] + rng.uniform(0.05, 30, 40), 64),
                         [3.0, 2.75, 64.0, 6.5]])
    freqs = np.array([0, 1, 3, -2, 64, 17, -31])
    got = interval_coverage_dft(lo, hi, 64, freqs)
    want = reference.interval_coverage_dft(lo, hi, 64, freqs)
    assert np.array_equal(got, want)

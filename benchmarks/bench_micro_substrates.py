"""Micro-benchmarks of the substrates: mask geometry (offsets to slabs
to pupil band, rasterization), the cold SOCS kernel build, litho
imaging, squish encoding, policy forward/backward, segment EPE
metrology.

These are the per-iteration costs that dominate every OPC engine's
runtime column in Tables 1 and 2.
"""

import numpy as np
import pytest

from repro.core.config import CamoConfig
from repro.core.policy import CamoPolicy
from repro.data import metal_test_suite, via_test_suite
from repro.data.via_bench import generate_via_clip
from repro.geometry import MaskState, fragment_clip, rasterize
from repro.graphs import build_segment_graph, snake_order
from repro.litho import LithoConfig, LithographySimulator
from repro.litho.kernels import OpticalKernelSet
from repro.litho.polygon_band import polygon_band_coeffs
from repro.metrology import segment_epe
from repro.nn.sage import mean_adjacency
from repro.rl.reinforce import select_log_probs_population
from repro.squish import NodeFeatureEncoder


@pytest.fixture(scope="module")
def setup():
    simulator = LithographySimulator(LithoConfig(pixel_nm=4.0, max_kernels=8))
    clip = generate_via_clip("micro", n_vias=4, seed=3)
    segments = fragment_clip(clip)
    state = MaskState.initial(clip, segments, bias_nm=3.0)
    grid = simulator.grid_for(clip)
    mask = rasterize(state.mask_polygons(), grid)
    simulator.aerial(mask)  # warm the kernel-FFT cache
    return simulator, clip, segments, state, grid, mask


def test_bench_aerial_image(setup, benchmark):
    simulator, _, _, _, _, mask = setup
    aerial = benchmark(simulator.aerial, mask)
    assert aerial.shape == mask.shape


def test_bench_full_corner_sweep(setup, benchmark):
    simulator, _, _, _, grid, mask = setup
    result = benchmark(simulator.simulate_mask, mask, grid)
    assert result.nominal.shape == mask.shape


@pytest.mark.parametrize("focus", ["nominal", "defocus"])
def test_bench_kernel_build(benchmark, focus):
    """Cold band-spectra build of the via and metal benchmark grids at
    the default optics: the TCC's source factor and the eigenpairs of
    its small Gram, with no cache and no spectra store."""
    config = LithoConfig()
    simulator = LithographySimulator(config)
    shapes = [
        simulator.grid_for(suite()[0]).shape
        for suite in (via_test_suite, metal_test_suite)
    ]

    def build():
        kernel_set = OpticalKernelSet(
            pixel_nm=config.pixel_nm,
            defocus_nm=config.defocus_nm if focus == "defocus" else 0.0,
            source=config.source,
            max_kernels=config.max_kernels,
            energy_fraction=config.energy_fraction,
        )
        return [kernel_set.band_spectra(shape) for shape in shapes]

    spectra = benchmark(build)
    assert [band.shape for band in spectra] == shapes
    assert all(0 < len(band.weights) <= config.max_kernels for band in spectra)


def test_bench_rasterize(setup, benchmark):
    _, _, _, state, grid, _ = setup
    image = benchmark(rasterize, state.mask_polygons(), grid)
    assert image.sum() > 0


def test_bench_offsets_to_band(setup, benchmark):
    """One OPC step's mask geometry: offsets -> cleaned vertex loops ->
    slabs -> Hermitian-half pupil band, with no Polygon built."""
    simulator, _, segments, state, grid, _ = setup
    band = simulator.kernel_set(0.0).band_spectra(grid.shape)
    deltas = np.random.default_rng(0).integers(-2, 3, size=len(segments))

    def step():
        moved = state.moved(deltas)
        return moved.slabs, polygon_band_coeffs([moved.slabs], grid, band)

    slabs, coeffs = benchmark(step)
    assert slabs.bounds.shape == (len(slabs.owner), 4)
    assert coeffs.shape == (1, len(band.rows_src), band.band[1] + 1)


def test_bench_rasterize_moved(setup, benchmark):
    """The verifier's raster of a moved mask (slabs from its polygons)."""
    _, _, segments, state, grid, _ = setup
    moved = state.moved(np.random.default_rng(1).integers(-2, 3, size=len(segments)))
    image = benchmark(rasterize, moved.mask_polygons(), grid)
    assert 0.0 < image.max() <= 1.0
    assert image.sum() * grid.pixel_nm**2 == pytest.approx(
        sum(polygon.area for polygon in moved.mask_polygons())
    )


def test_bench_node_feature_encoding(setup, benchmark):
    _, _, _, state, _, _ = setup
    encoder = NodeFeatureEncoder(window_nm=500, out_size=32, channels=6)
    features = benchmark(encoder.encode_all, state)
    assert features.shape[0] == state.n_segments


def test_bench_segment_epe(setup, benchmark):
    simulator, _, segments, _, grid, mask = setup
    aerial = simulator.aerial(mask)
    values = benchmark(
        segment_epe, aerial, grid, segments, simulator.config.threshold
    )
    assert len(values) == len(segments)


def test_bench_policy_forward(setup, benchmark):
    _, _, segments, state, _, _ = setup
    config = CamoConfig(encode_size=32)
    policy = CamoPolicy(config)
    encoder = NodeFeatureEncoder(window_nm=500, out_size=32, channels=6)
    features = encoder.encode_all(state)[None]
    graph = build_segment_graph(segments)
    adjacency = mean_adjacency(graph)
    order = snake_order(graph)
    logits = benchmark(policy, features, adjacency, order)
    assert logits.shape == (1, len(segments), 5)


def test_bench_policy_backward(setup, benchmark):
    _, _, segments, state, _, _ = setup
    config = CamoConfig(encode_size=32)
    policy = CamoPolicy(config)
    encoder = NodeFeatureEncoder(window_nm=500, out_size=32, channels=6)
    features = encoder.encode_all(state)[None]
    graph = build_segment_graph(segments)
    adjacency = mean_adjacency(graph)
    order = snake_order(graph)
    actions = np.zeros((1, len(segments)), dtype=int)

    def step():
        policy.zero_grad()
        log_prob = select_log_probs_population(
            policy(features, adjacency, order), actions
        ).sum()
        log_prob.backward()
        return log_prob

    result = benchmark(step)
    assert result.size == 1

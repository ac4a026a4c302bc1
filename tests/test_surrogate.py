"""Tests for the learned litho surrogate (repro.surrogate): rasterless
band features, CFNO-lite forward paths, the seeded exact-labeled
dataset, deterministic training with litho-guided self-training, and the
versioned checkpoint round trip."""

import numpy as np
import pytest

from repro.constants import MOVE_SET_NM
from repro.data.via_bench import generate_via_clip
from repro.errors import SurrogateError
from repro.backend import scipy_fft_available, torch_available
from repro.geometry.raster import rasterize
from repro.litho.kernels import band_limited_mask_subgrid_direct
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.nn import Tensor, no_grad, save_checkpoint
from repro.rl.env import OPCEnvironment
from repro.surrogate import (
    CFNOLite,
    SurrogateModel,
    SurrogateTrainConfig,
    generate_dataset,
    interval_coverage_dft,
    load_surrogate,
    pupil_modes,
    rasterless_subgrid_masks,
    save_surrogate,
    surrogate_features,
    surrogate_features_from_polygons,
    train_surrogate,
)
from repro.surrogate.data import dataset_clips, exact_subgrid_labels


@pytest.fixture(scope="module")
def sim():
    # Coarse fast optics: 128x128 grid for a 1024 nm clip.
    return LithographySimulator(
        LithoConfig(pixel_nm=8.0, max_kernels=4)
    )


@pytest.fixture(scope="module")
def quick_config():
    return SurrogateTrainConfig(
        width=16, n_clips=2, samples_per_clip=8, steps=250,
        selftrain_rounds=1, selftrain_pool=6, selftrain_keep=2,
        selftrain_steps=50, seed=3,
    )


@pytest.fixture(scope="module")
def trained(sim, quick_config):
    return train_surrogate(sim, quick_config)


class TestIntervalCoverageDft:
    """Closed-form 1-D coverage transform vs explicit pixel weights."""

    def _brute(self, lo, hi, n, freqs):
        weights = np.zeros(n)
        for p in range(n):
            weights[p] = max(0.0, min(p + 1.0, hi) - max(float(p), lo))
        z = np.exp(-2j * np.pi * np.asarray(freqs) / n)
        return np.array([(weights * z_k ** np.arange(n)).sum() for z_k in z])

    @pytest.mark.parametrize("lo,hi", [
        (0.25, 0.75),      # single partial pixel
        (2.0, 5.0),        # integer-aligned
        (1.3, 1.9),        # sub-pixel interior
        (0.0, 12.0),       # whole axis
        (3.7, 9.2),        # fringes + interior
        (5.0, 6.0),        # exactly one full pixel
    ])
    def test_matches_brute_force(self, lo, hi):
        freqs = np.array([0, 1, 2, -1, -3])
        got = interval_coverage_dft(
            np.array([lo]), np.array([hi]), 12, freqs
        )[0]
        np.testing.assert_allclose(got, self._brute(lo, hi, 12, freqs),
                                   atol=1e-12)

    def test_zero_frequency_is_length(self):
        got = interval_coverage_dft(
            np.array([1.25]), np.array([7.5]), 16, np.array([0])
        )
        np.testing.assert_allclose(got, [[7.5 - 1.25]], atol=1e-12)

    def test_batched_matches_rowwise(self):
        rng = np.random.default_rng(0)
        lo = rng.uniform(0, 10, size=9)
        hi = lo + rng.uniform(0.1, 5, size=9)
        freqs = np.array([0, 2, -4, 7])
        batch = interval_coverage_dft(lo, hi, 16, freqs)
        for i in range(9):
            np.testing.assert_allclose(
                batch[i], self._brute(lo[i], hi[i], 16, freqs), atol=1e-11
            )


class TestRasterlessFeatures:
    """Slab-DFT features vs rasterize-then-gather, on real OPC states."""

    def test_matches_raster_route_on_candidates(self, sim):
        clip = generate_via_clip("rl1", n_vias=2, seed=31, clip_nm=1024.0)
        env = OPCEnvironment(clip, sim)
        state = env.reset()
        move_set = np.asarray(MOVE_SET_NM, dtype=np.float64)
        rng = np.random.default_rng(2)
        candidates = np.vstack([
            env.uniform_move_candidates(),
            rng.integers(0, 5, size=(3, env.n_segments)),
        ])
        polygon_sets = [
            state.mask.moved(move_set[row]).mask_polygons()
            for row in candidates
        ]
        band = sim.kernel_set(0.0).band_spectra(env.grid.shape)
        reference = band_limited_mask_subgrid_direct(
            np.stack([rasterize(p, env.grid) for p in polygon_sets]), band
        )
        fast = rasterless_subgrid_masks(polygon_sets, env.grid, band)
        np.testing.assert_allclose(fast, reference, atol=1e-10)

    def test_feature_helpers_agree(self, sim):
        clip = generate_via_clip("rl2", n_vias=2, seed=44, clip_nm=1024.0)
        grid = sim.grid_for(clip)
        polygons = [list(clip.targets)]
        raster = rasterize(clip.targets, grid)[None]
        from_masks, band_a, _ = surrogate_features(raster, sim, grid)
        from_polys, band_b, _ = surrogate_features_from_polygons(
            polygons, sim, grid
        )
        assert band_a.band == band_b.band
        np.testing.assert_allclose(from_polys, from_masks, atol=1e-10)

    def test_empty_polygon_set_gives_zero_features(self, sim):
        clip = generate_via_clip("rl3", n_vias=2, seed=45, clip_nm=1024.0)
        grid = sim.grid_for(clip)
        band = sim.kernel_set(0.0).band_spectra(grid.shape)
        sub = rasterless_subgrid_masks([[]], grid, band)
        np.testing.assert_allclose(sub, 0.0)

    def test_rejects_mismatched_grid(self, sim):
        clip = generate_via_clip("rl4", n_vias=2, seed=46, clip_nm=1024.0)
        grid = sim.grid_for(clip)
        band = sim.kernel_set(0.0).band_spectra((64, 64))
        with pytest.raises(SurrogateError, match="does not match"):
            rasterless_subgrid_masks([list(clip.targets)], grid, band)


class TestCFNOLite:
    def test_forward_fast_matches_autograd(self):
        for shape, modes in [((30, 30), (8, 8)), ((13, 17), (4, 6)),
                             ((8, 8), (4, 5))]:
            net = CFNOLite(modes=modes, width=5, corners=2,
                           rng=np.random.default_rng(7))
            x = np.random.default_rng(1).random((3, 1, *shape))
            with no_grad():
                slow = net(Tensor(x)).numpy()
            fast = net.forward_fast(x)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_forward_fast_rejects_bad_shape(self):
        net = CFNOLite(modes=(2, 2), width=3)
        with pytest.raises(SurrogateError, match="forward_fast expects"):
            net.forward_fast(np.zeros((4, 2, 8, 8)))

    def test_rejects_bad_width(self):
        with pytest.raises(SurrogateError, match="width/corners"):
            CFNOLite(modes=(2, 2), width=0)

    def test_pupil_modes_cover_band(self, sim):
        band = sim.kernel_set(0.0).band_spectra((128, 128))
        m1, m2 = pupil_modes(band)
        assert (m1, m2) == (band.band[0] + 1, band.band[1] + 1)


class TestDataset:
    def test_seeded_dataset_is_reproducible(self, sim):
        a = generate_dataset(sim, seed=5, n_clips=2, samples_per_clip=3)
        b = generate_dataset(sim, seed=5, n_clips=2, samples_per_clip=3)
        np.testing.assert_array_equal(a.masks, b.masks)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_dataset_clips_skip_infeasible_seeds(self):
        # Seed 2 hits an infeasible via placement (the first via lands
        # centrally, leaving no legal second spot) — the deterministic
        # scan must step past it rather than raise.
        clips = dataset_clips(seed=2, n_clips=3, clip_nm=1024.0)
        assert len(clips) == 3
        again = dataset_clips(seed=2, n_clips=3, clip_nm=1024.0)
        assert [c.metadata["seed"] for c in clips] == [
            c.metadata["seed"] for c in again
        ]
        assert [c.name for c in clips] == [c.name for c in again]

    def test_labels_match_exact_simulation(self, sim):
        dataset = generate_dataset(sim, seed=1, n_clips=1,
                                   samples_per_clip=2)
        again = exact_subgrid_labels(dataset.masks, sim, dataset.grid)
        np.testing.assert_array_equal(dataset.labels, again)

    def test_shape_validation(self, sim):
        dataset = generate_dataset(sim, seed=1, n_clips=1,
                                   samples_per_clip=2)
        from repro.surrogate import SurrogateDataset
        with pytest.raises(SurrogateError, match="masks but"):
            SurrogateDataset(masks=dataset.masks,
                             labels=dataset.labels[:1], grid=dataset.grid)


class TestTraining:
    def test_reports_selftrain_rounds(self, trained, quick_config):
        _, report = trained
        assert len(report.selftrain_rounds) == quick_config.selftrain_rounds
        round_info = report.selftrain_rounds[0]
        assert round_info["relabeled"] == quick_config.selftrain_keep
        assert round_info["pool"] >= quick_config.selftrain_keep
        # worst is the pool max, so it bounds the pool mean
        assert round_info["worst_mse"] >= round_info["mean_mse"]
        assert report.samples > (
            quick_config.n_clips * quick_config.samples_per_clip
        )
        assert np.isfinite(report.final_loss)

    def test_training_learns_the_operator(self, sim, trained):
        """Predictions on held-out perturbations beat the zero baseline
        by a wide margin (relative L2 well under 1)."""
        model, _ = trained
        holdout = generate_dataset(sim, seed=991, n_clips=1,
                                   samples_per_clip=4)
        features, _, _ = surrogate_features(holdout.masks, sim, holdout.grid)
        predicted = model.net.forward_fast(features)
        rel = np.linalg.norm(predicted - holdout.labels) / np.linalg.norm(
            holdout.labels
        )
        assert rel < 0.5

    def test_deterministic_checkpoint_bytes(self, sim, quick_config,
                                            trained, tmp_path):
        model_a, _ = trained
        model_b, _ = train_surrogate(sim, quick_config)
        path_a = tmp_path / "a.npz"
        path_b = tmp_path / "b.npz"
        save_surrogate(str(path_a), model_a)
        save_surrogate(str(path_b), model_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_config_validation(self):
        with pytest.raises(SurrogateError, match="keep"):
            SurrogateTrainConfig(selftrain_keep=10, selftrain_pool=4)
        with pytest.raises(SurrogateError, match="lr"):
            SurrogateTrainConfig(lr=0.0)


class TestCheckpointRoundTrip:
    def test_load_reproduces_predictions(self, sim, trained, tmp_path):
        model, _ = trained
        path = str(tmp_path / "surrogate.npz")
        save_surrogate(path, model)
        loaded = load_surrogate(path)
        assert loaded.net.modes == model.net.modes
        assert loaded.net.width == model.net.width
        x = np.random.default_rng(0).random(
            (2, 1, *sim.kernel_set(0.0).band_spectra((128, 128)).subgrid)
        )
        np.testing.assert_array_equal(
            loaded.net.forward_fast(x), model.net.forward_fast(x)
        )

    def test_rejects_foreign_checkpoint(self, trained, tmp_path):
        model, _ = trained
        path = str(tmp_path / "foreign.npz")
        save_checkpoint(path, model.net.state_dict(),
                        extra={"kind": "something-else"})
        with pytest.raises(SurrogateError, match="not a cfno-lite"):
            load_surrogate(path)

    def test_rejects_plain_module_checkpoint(self, trained, tmp_path):
        model, _ = trained
        path = str(tmp_path / "plain.npz")
        model.net.save(path)  # no surrogate metadata
        with pytest.raises(SurrogateError, match="not a cfno-lite"):
            load_surrogate(path)


class TestPredictionPaths:
    def test_mask_and_polygon_totals_agree(self, sim, trained):
        model, _ = trained
        clip = generate_via_clip("pp1", n_vias=2, seed=52, clip_nm=1024.0)
        env = OPCEnvironment(clip, sim)
        state = env.reset()
        plan = env.measure_plan()
        assert plan is not None
        move_set = np.asarray(MOVE_SET_NM, dtype=np.float64)
        candidates = env.uniform_move_candidates()
        polygon_sets = [
            state.mask.moved(move_set[row]).mask_polygons()
            for row in candidates
        ]
        masks = np.stack([rasterize(p, env.grid) for p in polygon_sets])
        from_masks = model.predict_epe_totals(
            masks, sim, env.grid, plan, sim.config.threshold
        )
        from_polys = model.predict_epe_totals_from_polygons(
            polygon_sets, sim, env.grid, plan, sim.config.threshold
        )
        np.testing.assert_allclose(from_polys, from_masks, atol=1e-6)

    def test_rejects_non_3d_masks(self, sim, trained):
        model, _ = trained
        clip = generate_via_clip("pp2", n_vias=2, seed=53, clip_nm=1024.0)
        grid = sim.grid_for(clip)
        with pytest.raises(SurrogateError, match="3-D"):
            surrogate_features(np.zeros((128, 128)), sim, grid)


#: Every installed array backend; "numpy" doubles as the reference.
PARITY_BACKENDS = (
    ["numpy"]
    + (["scipy"] if scipy_fft_available() else [])
    + (["torch"] if torch_available() else [])
)


@pytest.mark.parametrize("backend", PARITY_BACKENDS)
class TestBackendParity:
    """The surrogate's litho-facing paths under every array backend.

    Features, ``forward_fast`` and ranked EPE totals must agree with the
    numpy reference to <= 1e-9 under scipy and CPU/CUDA torch — the
    screening decisions a device deployment makes are the same
    decisions the host makes.
    """

    def _sims(self, backend):
        base = dict(pixel_nm=8.0, max_kernels=4)
        return (
            LithographySimulator(LithoConfig(backend="numpy", **base)),
            LithographySimulator(LithoConfig(backend=backend, **base)),
        )

    def test_features_and_totals_match_numpy(self, backend, trained):
        model, _ = trained
        ref_sim, sim = self._sims(backend)
        clip = generate_via_clip("bp1", n_vias=2, seed=57, clip_nm=1024.0)
        env = OPCEnvironment(clip, ref_sim)
        state = env.reset()
        plan = env.measure_plan()
        masks = np.stack([
            rasterize(state.mask.mask_polygons(), env.grid),
            rasterize(clip.targets, env.grid),
        ])
        ref_features, band, ref_kset = surrogate_features(
            masks, ref_sim, env.grid
        )
        features, _, kset = surrogate_features(masks, sim, env.grid)
        host_features = kset.fft.to_host(features)
        assert np.abs(host_features - ref_features).max() < 1e-9
        ref_pred, _, _ = model.predict_subgrid(masks, ref_sim, env.grid)
        pred, _, _ = model.predict_subgrid(masks, sim, env.grid)
        assert isinstance(pred, np.ndarray)
        assert np.abs(pred - ref_pred).max() < 1e-9
        ref_totals = model.predict_epe_totals(
            masks, ref_sim, env.grid, plan, ref_sim.config.threshold
        )
        totals = model.predict_epe_totals(
            masks, sim, env.grid, plan, sim.config.threshold
        )
        assert np.abs(totals - ref_totals).max() < 1e-9

"""Error-path coverage for the lithography engine plus the bounded
per-grid caches: every ``LithoError`` raise in ``kernels.py`` /
``simulator.py`` is exercised, LRU eviction is shown to keep results
correct, and the full-grid kernel spectra are shown to be cached per
grid shape."""

import numpy as np
import pytest

from repro.errors import LithoError, RLError
from repro.geometry import Clip, Grid, Polygon, Rect
from repro.litho import (
    LithoConfig,
    LithographySimulator,
    OpticalKernelSet,
    SourceSpec,
    next_fast_len,
)
from repro.rl.env import OPCEnvironment

SMALL = 96
"""Smallest grid side (8 nm pixels) used below; 16 px is too coarse to
hold the pupil band."""


def native_kernel_set(capacity: int = 6):
    """A small uncached kernel set (8 nm, at most 4 kernels)."""
    return OpticalKernelSet(
        pixel_nm=8.0,
        defocus_nm=0.0,
        source=SourceSpec(),
        max_kernels=4,
        fft_cache_capacity=capacity,
    )


def cache_key(shape):
    return shape


class TestKernelSetErrors:
    def test_non_2d_mask(self):
        with pytest.raises(LithoError):
            native_kernel_set().convolve_intensity(np.ones((2, 16, 16)))

    def test_mask_smaller_than_ambit(self):
        """A window smaller than the optical ambit holds no pupil band."""
        with pytest.raises(LithoError, match="too coarse"):
            native_kernel_set().convolve_intensity(np.ones((3, 3)))

    def test_batch_rejects_2d(self):
        with pytest.raises(LithoError, match="3-D"):
            native_kernel_set().validate_mask_batch(np.ones((16, 16)))

    def test_batch_rejects_4d(self):
        with pytest.raises(LithoError, match="3-D"):
            native_kernel_set().validate_mask_batch(np.ones((2, 2, 16, 16)))

    def test_batch_rejects_empty(self):
        with pytest.raises(LithoError, match="empty"):
            native_kernel_set().validate_mask_batch(np.empty((0, 16, 16)))

    def test_batch_rejects_small_masks(self):
        with pytest.raises(LithoError, match="too coarse"):
            native_kernel_set().validate_mask_batch(np.ones((2, 16, 16)))

    def test_spectra_helper_rejects_2d(self):
        with pytest.raises(LithoError, match="3-D"):
            native_kernel_set().subgrid_intensity(np.ones((16, 16)))

    def test_kernel_spectra_rejects_small_grid(self):
        with pytest.raises(LithoError, match="too coarse"):
            native_kernel_set().kernel_spectra((16, 16))

    def test_spectra_helper_rejects_small_grid(self):
        with pytest.raises(LithoError, match="too coarse"):
            native_kernel_set().subgrid_intensity(np.ones((1, 16, 16)))

    def test_bad_cache_capacity(self):
        with pytest.raises(LithoError, match="fft_cache_capacity"):
            native_kernel_set(capacity=0)

    def test_needs_source_or_kernels(self):
        """Band spectra are built from the optics: a set without a
        source spec cannot be constructed, and explicit spatial kernels
        are no longer accepted."""
        with pytest.raises(TypeError, match="source"):
            OpticalKernelSet(pixel_nm=8.0, defocus_nm=0.0)
        with pytest.raises(TypeError, match="kernels"):
            OpticalKernelSet(
                pixel_nm=8.0, defocus_nm=0.0, source=SourceSpec(),
                kernels=np.ones((2, 5, 5), dtype=complex),
            )

    def test_native_set_has_no_spatial_ambit(self):
        from repro.litho import build_kernel_set

        native = build_kernel_set(pixel_nm=8.0, max_kernels=4)
        # Kernel counts are per grid: they live on the band spectra.
        assert not hasattr(native, "ambit_px")
        assert not hasattr(native, "count")
        assert native.band_spectra((SMALL, SMALL)).count <= 4


class TestFFTCacheLRU:
    def test_capacity_is_enforced(self):
        kernel_set = native_kernel_set(capacity=2)
        for n in (SMALL, SMALL + 4, SMALL + 8, SMALL + 12):
            kernel_set.convolve_intensity(np.ones((n, n)))
        assert len(kernel_set._fft_cache) == 2
        assert list(kernel_set._fft_cache) == [
            cache_key((SMALL + 8, SMALL + 8)),
            cache_key((SMALL + 12, SMALL + 12)),
        ]

    def test_recently_used_shape_survives(self):
        kernel_set = native_kernel_set(capacity=2)
        a, b, c = (SMALL, SMALL), (SMALL + 4, SMALL + 4), (SMALL + 8, SMALL + 8)
        kernel_set.convolve_intensity(np.ones(a))
        kernel_set.convolve_intensity(np.ones(b))
        kernel_set.convolve_intensity(np.ones(a))  # refresh a
        kernel_set.convolve_intensity(np.ones(c))  # evicts b
        assert list(kernel_set._fft_cache) == [cache_key(a), cache_key(c)]

    def test_eviction_keeps_results_correct(self):
        """Recomputing an evicted shape must reproduce the original
        intensities exactly."""
        kernel_set = native_kernel_set(capacity=1)
        rng = np.random.default_rng(3)
        mask_small = rng.random((SMALL, SMALL))
        mask_large = rng.random((SMALL + 8, SMALL + 8))
        first = kernel_set.convolve_intensity(mask_small)
        kernel_set.convolve_intensity(mask_large)  # evicts the small spectra
        assert cache_key((SMALL, SMALL)) not in kernel_set._fft_cache
        again = kernel_set.convolve_intensity(mask_small)
        assert np.array_equal(first, again)

    def test_batch_and_single_share_cache(self):
        kernel_set = native_kernel_set()
        kernel_set.convolve_intensity(np.ones((SMALL, SMALL)))
        assert list(kernel_set._fft_cache) == [cache_key((SMALL, SMALL))]
        shape = (SMALL, SMALL)
        kernel_set.resample_intensity(
            kernel_set.subgrid_intensity(np.ones((4, *shape))), shape
        )
        # no new entry
        assert list(kernel_set._fft_cache) == [cache_key((SMALL, SMALL))]


class TestFFTCacheBackendKey:
    def test_native_band_spectra_are_backend_independent(self):
        from repro.litho import build_kernel_set

        native = build_kernel_set(pixel_nm=8.0, max_kernels=4)
        stack = native.kernel_spectra((96, 96))
        # Scattered band coefficients involve no transform at all, so the
        # grid shape is the whole cache key.
        assert (96, 96) in native._fft_cache
        again = native.kernel_spectra((96, 96))
        assert again is stack


class TestSimulatorErrors:
    @pytest.fixture(scope="class")
    def sim(self):
        return LithographySimulator(
            LithoConfig(
                pixel_nm=8.0, max_kernels=4
            )
        )

    def test_bad_mode(self, sim):
        """The retired ``mode=`` argument is not accepted at all."""
        grid = Grid(0, 0, 8.0, 96, 96)
        for mode in ("turbo", "exact", "spectral"):
            with pytest.raises(TypeError, match="mode"):
                sim.simulate_batch(np.ones((1, 96, 96)), grid, mode=mode)

    def test_empty_batch(self, sim):
        grid = Grid(0, 0, 8.0, 96, 96)
        with pytest.raises(LithoError, match="empty"):
            sim.simulate_batch([], grid)

    def test_ragged_batch(self, sim):
        grid = Grid(0, 0, 8.0, 96, 96)
        with pytest.raises(LithoError, match="share one shape"):
            sim.simulate_batch([np.ones((96, 96)), np.ones((80, 80))], grid)

    def test_grid_mismatch(self, sim):
        grid = Grid(0, 0, 8.0, 96, 96)
        with pytest.raises(LithoError, match="grid"):
            sim.simulate_batch(np.ones((1, 80, 80)), grid)

    def test_window_too_small_for_band(self, sim):
        """A 128 nm window holds no usable pupil band: the frequency-
        native build must reject it with a clear message."""
        grid = Grid(0, 0, 8.0, 16, 16)
        with pytest.raises(LithoError, match="too coarse"):
            sim.simulate_batch(np.ones((1, 16, 16)), grid)

    def test_bad_fft_length(self):
        with pytest.raises(LithoError):
            next_fast_len(0)


class TestEnvBatchErrors:
    @pytest.fixture(scope="class")
    def env(self):
        sim = LithographySimulator(
            LithoConfig(
                pixel_nm=8.0, max_kernels=4
            )
        )
        clip = Clip(
            name="err-env",
            bbox=Rect(0, 0, 1280, 1280),
            targets=(Polygon.from_rect(Rect.square(640, 640, 90)),),
            layer="via",
        )
        return OPCEnvironment(clip, sim)

    def test_empty_evaluate_batch(self, env):
        with pytest.raises(RLError, match="at least one"):
            env.evaluate_batch([])

    def test_empty_reset_population(self, env):
        with pytest.raises(RLError, match="at least one"):
            env.reset_population([])

    def test_score_moves_rejects_1d(self, env):
        state = env.reset()
        with pytest.raises(RLError, match="matrix"):
            env.score_moves(state, np.zeros(env.n_segments, dtype=int))

    def test_score_moves_rejects_empty(self, env):
        state = env.reset()
        with pytest.raises(RLError, match="non-empty"):
            env.score_moves(state, np.zeros((0, env.n_segments), dtype=int))

    def test_score_moves_rejects_wrong_width(self, env):
        state = env.reset()
        with pytest.raises(RLError, match="actions"):
            env.score_moves(state, np.zeros((2, env.n_segments + 1), dtype=int))

    def test_score_moves_rejects_out_of_range(self, env):
        state = env.reset()
        bad = np.full((1, env.n_segments), env.n_actions)
        with pytest.raises(RLError, match="indices"):
            env.score_moves(state, bad)

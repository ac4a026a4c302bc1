"""Tests for the FFT entry points of the array backend
(:mod:`repro.backend`) behind the lithography engines."""

import numpy as np
import pytest

from repro.backend import ArrayBackend, resolve_backend
from repro.errors import LithoError
from repro.litho import LithoConfig, LithographySimulator


class TestResolution:
    def test_numpy_backend(self):
        backend = resolve_backend("numpy")
        assert backend.name == "numpy"

    def test_unknown_backend_rejected(self):
        for name in ("fftw", "cupy"):
            with pytest.raises(LithoError, match="unknown array backend"):
                resolve_backend(name)

    def test_backends_are_cached(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")


class TestTransforms:
    def test_numpy_backend_matches_np_fft_exactly(self):
        rng = np.random.default_rng(0)
        stack = rng.random((3, 16, 16))
        backend = ArrayBackend(name="numpy")
        assert np.array_equal(backend.fft2(stack), np.fft.fft2(stack, axes=(-2, -1)))
        spec = np.fft.fft2(stack, axes=(-2, -1))
        assert np.array_equal(
            backend.ifft2(spec), np.fft.ifft2(spec, axes=(-2, -1))
        )


class TestSimulatorIntegration:
    def test_litho_config_validates_backend(self):
        with pytest.raises(LithoError):
            LithoConfig(backend="fftw")

    def test_kernel_set_carries_backend(self):
        sim = LithographySimulator(
            LithoConfig(
                pixel_nm=8.0, max_kernels=4,
                backend="numpy",
            )
        )
        assert sim.kernel_set(0.0).fft.name == "numpy"

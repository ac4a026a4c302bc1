"""Tests for the one array backend: numpy.

Four contracts pinned here:

* **Backend setting** — ``LithoConfig.backend`` defaults to numpy on
  every host and rejects every other name, ``"torch"`` included;
  ``LithoConfig`` has no device field.
* **Dtype policy** — every transform-derived artifact on the sparse
  gather path is float64/complex128.
* **Fingerprint** — ``backend`` never enters the engine fingerprint.
* **Cache identity** — stencil plans are pure geometry and cached on it.
"""

import dataclasses
import os
import warnings

import numpy as np
import pytest

from repro.errors import LithoError
from repro.geometry import Grid, Polygon, Rect, rasterize
from repro.geometry.segmentation import fragment_clip
from repro.litho.kernels import (
    band_values_at_pixels,
    gather_band_rfft,
)
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.metrology.epe import measure_stencil_plan
from repro.service.sharding import FINGERPRINT_EXCLUDED_LITHO_FIELDS


@pytest.fixture(scope="module")
def numpy_sim():
    return LithographySimulator(LithoConfig(
        pixel_nm=8.0, max_kernels=4, backend="numpy",
    ))


@pytest.fixture(scope="module")
def band_geometry(numpy_sim):
    """A compact pupil band plus its kernel set, shared across tests."""
    kset = numpy_sim.kernel_set(0.0)
    return kset.band_spectra((160, 160)), kset


def small_mask_stack(count=2, n=160, seed=3):
    grid = Grid(0, 0, 8.0, n, n)
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(count):
        cx = float(rng.integers(300, n * 8 - 300))
        cy = float(rng.integers(300, n * 8 - 300))
        masks.append(rasterize(
            [Polygon.from_rect(Rect.square(cx, cy, 90))], grid
        ))
    return np.stack(masks)


def subgrid_intensity(kset, band, count=2):
    """Exact ``(count, m0, m1)`` subgrid intensity of a small mask stack."""
    masks = small_mask_stack(count)
    return kset.subgrid_intensity(masks)


class TestResolution:
    def test_default_is_numpy_on_any_host(self, monkeypatch):
        """The host's core count and installed libraries never pick the
        transform: the default is numpy on an 8-core host."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert LithoConfig(pixel_nm=8.0).backend == "numpy"

    @pytest.mark.parametrize("name", ["auto", "scipy"])
    def test_retired_spellings_are_rejected(self, name):
        with pytest.raises(LithoError, match="numpy is the only one"):
            LithoConfig(pixel_nm=8.0, backend=name)

    def test_torch_raises_when_absent(self):
        """torch is no backend: a device request fails loudly, whether
        or not torch is installed, instead of degrading to host."""
        with pytest.raises(LithoError, match="'torch'"):
            LithoConfig(pixel_nm=8.0, backend="torch")

    def test_host_backends_reject_device_strings(self):
        with pytest.raises(TypeError, match="device"):
            LithoConfig(pixel_nm=8.0, device="cuda")


class TestDeprecatedConfigKnob:
    """The retired ``fft_backend=`` alias is gone: ``backend=`` is the
    one spelling, and it never warns."""

    def test_new_spelling_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = LithoConfig(pixel_nm=8.0, backend="numpy")
        assert cfg.backend == "numpy"
        assert not hasattr(cfg, "fft_backend")

    def test_bad_backend_rejected_at_config_time(self):
        with pytest.raises(LithoError):
            LithoConfig(pixel_nm=8.0, backend="fftw")


class TestFingerprintExclusion:
    def test_backend_and_device_are_deployment_knobs(self):
        """Neither enters the engine fingerprint: ``backend`` is an
        init-only check and ``device`` is gone, so no config field
        carries either, and journals written while they were fields
        still resume."""
        assert FINGERPRINT_EXCLUDED_LITHO_FIELDS == ("spectra_store",)
        config_fields = {f.name for f in dataclasses.fields(LithoConfig)}
        assert set(FINGERPRINT_EXCLUDED_LITHO_FIELDS) <= config_fields
        assert not {"backend", "device"} & config_fields


class TestDtypePolicy:
    def test_lattice_gather_is_float64(self, band_geometry):
        band, kset = band_geometry
        intensity = subgrid_intensity(kset, band)
        rows = np.array([5, 80, 120, 80], dtype=np.int64)
        cols = np.array([7, 40, 150, 7], dtype=np.int64)
        values = band_values_at_pixels(intensity, band, rows, cols)
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64
        assert values.shape == (2, 4)

    def test_band_gather_promotes_to_complex128(self, band_geometry):
        band, kset = band_geometry
        masks = small_mask_stack()
        sub = gather_band_rfft(np.fft.rfft2(masks, axes=(-2, -1)), band)
        assert sub.dtype == np.complex128

    def test_real_resample_is_float64(self, band_geometry):
        """The dense back end resamples in real arithmetic: the aerial is
        float64 on the full grid."""
        band, kset = band_geometry
        aerial = kset.resample_intensity(
            subgrid_intensity(kset, band), band.shape
        )
        assert aerial.dtype == np.float64
        assert aerial.shape == (2, *band.shape)

    def test_sparse_values_are_float64(self, numpy_sim):
        """The verifier's end-to-end sparse values, not just the gather."""
        from repro.data.via_bench import generate_via_clip

        clip = generate_via_clip("dt1", n_vias=2, seed=31, clip_nm=1280)
        grid = numpy_sim.grid_for(clip)
        plan = measure_stencil_plan(grid, fragment_clip(clip))
        (sparse,) = numpy_sim.simulate_epe_batch(
            rasterize(clip.targets, grid)[None], grid, plan
        )
        assert isinstance(sparse.values, np.ndarray)
        assert sparse.values.dtype == np.float64


class TestCacheIdentity:
    def test_contour_plan_cache_is_backend_independent(self):
        """Stencil plans are pure geometry — no FFT input — so equal
        geometry is served one plan from the cache."""
        from repro.metrology.contour import plan_contour_stencils

        grid = Grid(0, 0, 8.0, 64, 64)
        points = np.array([[256.0, 256.0], [300.0, 180.0]])
        normals = np.array([[1.0, 0.0], [0.0, 1.0]])
        first = plan_contour_stencils(grid, points, normals)
        second = plan_contour_stencils(grid, points.copy(), normals.copy())
        assert second is first

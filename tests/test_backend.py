"""Tests for the array/device backend (``repro.backend``).

Four contracts pinned here:

* **Resolution semantics** — ``"auto"`` only ever picks a host backend;
  ``"torch"`` raises when torch is absent (never degrades silently);
  host backends reject device strings.
* **Dtype policy** — every transform-derived artifact on the sparse
  gather path is float64/complex128 under the numpy backend, and the
  torch adapter pins the same dtypes so the process-global
  ``torch.set_default_dtype`` (float32 out of the box) can never
  degrade parity.
* **Cache identity** — caches of transform-derived artifacts key on
  backend identity + device: numpy and scipy share one host copy
  (same ``array_identity``), a device backend always gets its own
  entry, and a backend swap can never serve wrong-residency arrays.
  The sparse pixel gather caches nothing: numpy and scipy compute it
  bit-for-bit alike, and a device backend gets host float64 values.
* **Torch parity** — the torch CPU backend agrees with numpy to <= 1e-9
  nm EPE on the sparse screening path (skipped when torch is not
  installed).
"""

import warnings

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    ArrayBackend,
    resolve_backend,
    scipy_fft_available,
    torch_available,
)
from repro.errors import LithoError
from repro.geometry import Grid, Polygon, Rect, rasterize
from repro.geometry.segmentation import fragment_clip
from repro.litho.kernels import (
    band_values_at_pixels,
    gather_band_rfft,
)
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.metrology.epe import measure_epe_grouped_sparse, measure_stencil_plan
from repro.service.sharding import FINGERPRINT_EXCLUDED_LITHO_FIELDS

requires_torch = pytest.mark.skipif(
    not torch_available(), reason="torch not installed"
)

EPE_TOLERANCE_NM = 1e-9


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
    return kset.subgrid_intensity(
        np.fft.rfft2(masks, axes=(-2, -1)), band.shape
    )


class TestResolution:
    def test_backend_names_are_the_public_contract(self):
        assert BACKEND_NAMES == ("auto", "numpy", "scipy", "torch")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_auto_never_picks_a_device_backend(self, workers):
        """Device execution is explicit opt-in: whatever is installed,
        ``auto`` resolves to a host backend."""
        assert resolve_backend("auto", workers).name in ("numpy", "scipy")

    @pytest.mark.skipif(torch_available(), reason="torch is installed")
    def test_torch_raises_when_absent(self):
        """A device request must never degrade silently to host."""
        with pytest.raises(LithoError, match="torch"):
            resolve_backend("torch")

    @requires_torch
    def test_torch_cpu_resolves(self):
        backend = resolve_backend("torch", device="cpu")
        assert backend.name == "torch"
        assert backend.device == "cpu"
        assert not backend.is_numpy

    def test_host_backends_reject_device_strings(self):
        with pytest.raises(LithoError, match="host-only"):
            resolve_backend("numpy", device="cuda")

    def test_identity_vs_array_identity(self):
        """numpy and scipy differ in transform identity but share the
        array representation (host numpy) — residency-only caches key
        on ``array_identity`` so the two share one copy."""
        np1 = resolve_backend("numpy", 1)
        np2 = resolve_backend("numpy", 2)
        assert np1.identity != np2.identity
        assert np1.array_identity == np2.array_identity == ("numpy", "cpu")
        if scipy_fft_available():
            sp = resolve_backend("scipy", 2)
            assert sp.identity != np1.identity
            assert sp.array_identity == ("numpy", "cpu")
        # array_identity is a pure function of (name, device): true for
        # the torch spelling whether or not torch is importable.
        torch_cuda = ArrayBackend(name="torch", workers=1, device="cuda:1")
        assert torch_cuda.array_identity == ("torch", "cuda:1")


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
        """Journals written under one backend must resume under any
        other: backend/device never enter the engine fingerprint."""
        for field in ("backend", "device", "fft_workers"):
            assert field in FINGERPRINT_EXCLUDED_LITHO_FIELDS


class TestDtypePolicy:
    def test_lattice_gather_is_float64(self, band_geometry):
        band, kset = band_geometry
        intensity = subgrid_intensity(kset, band)
        rows = np.array([5, 80, 120, 80], dtype=np.int64)
        cols = np.array([7, 40, 150, 7], dtype=np.int64)
        values = band_values_at_pixels(
            intensity, band, rows, cols, resolve_backend("numpy", 1)
        )
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64
        assert values.shape == (2, 4)

    def test_band_gather_promotes_to_complex128(self, band_geometry):
        band, kset = band_geometry
        masks = small_mask_stack()
        sub = gather_band_rfft(np.fft.rfft2(masks, axes=(-2, -1)), band)
        assert sub.dtype == np.complex128

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
    def test_numpy_and_scipy_gather_bit_for_bit(self, band_geometry):
        """The gather caches nothing per backend; on the same subgrid
        intensity numpy and scipy produce identical bits."""
        if not scipy_fft_available():
            pytest.skip("scipy not installed")
        band, kset = band_geometry
        intensity = subgrid_intensity(kset, band)
        rows = np.array([3, 9, 3, 150], dtype=np.int64)
        cols = np.array([4, 11, 100, 4], dtype=np.int64)
        via_numpy = band_values_at_pixels(
            intensity, band, rows, cols, resolve_backend("numpy", 1)
        )
        via_scipy = band_values_at_pixels(
            intensity, band, rows, cols, resolve_backend("scipy", 2)
        )
        np.testing.assert_array_equal(via_scipy, via_numpy)

    @requires_torch
    def test_torch_gather_runs_on_device_values_come_home(
        self, band_geometry
    ):
        """Under a device backend the gather takes a device-resident
        intensity and returns host float64 values equal to numpy's."""
        import torch

        band, kset = band_geometry
        intensity = subgrid_intensity(kset, band)
        rows = np.array([3, 9, 3], dtype=np.int64)
        cols = np.array([4, 11, 100], dtype=np.int64)
        host = band_values_at_pixels(
            intensity, band, rows, cols, resolve_backend("numpy", 1)
        )
        backend = resolve_backend("torch", device="cpu")
        device_intensity = backend.to_device(intensity)
        assert isinstance(device_intensity, torch.Tensor)
        got = band_values_at_pixels(
            device_intensity, band, rows, cols, backend
        )
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.float64
        assert np.abs(got - host).max() < 1e-12

    def test_contour_plan_cache_is_backend_independent(self):
        """Stencil plans are pure geometry — no FFT input — so one plan
        deliberately serves every backend (documented invariant)."""
        from repro.metrology.contour import plan_contour_stencils

        grid = Grid(0, 0, 8.0, 64, 64)
        points = np.array([[256.0, 256.0], [300.0, 180.0]])
        normals = np.array([[1.0, 0.0], [0.0, 1.0]])
        first = plan_contour_stencils(grid, points, normals)
        second = plan_contour_stencils(grid, points.copy(), normals.copy())
        assert second is first


class TestRealResample:
    """``ArrayBackend.irfft2`` under the dense intensity resample."""

    def _resample(self, band, intensity, backend, workers=1):
        from repro.litho.kernels import build_kernel_set

        kset = build_kernel_set(
            pixel_nm=8.0, max_kernels=4, backend=backend,
            fft_workers=workers,
        )
        return kset.fft.to_host(kset.resample_intensity(
            kset.fft.to_device(intensity), band.shape
        ))

    def test_numpy_and_scipy_resample_agree(self, band_geometry):
        if not scipy_fft_available():
            pytest.skip("scipy not installed")
        band, kset = band_geometry
        intensity = subgrid_intensity(kset, band)
        via_numpy = self._resample(band, intensity, "numpy")
        via_scipy = self._resample(band, intensity, "scipy", workers=2)
        assert via_numpy.shape == (2, *band.shape)
        assert np.abs(via_scipy - via_numpy).max() < 1e-12

    @requires_torch
    def test_torch_resample_matches_numpy(self, band_geometry):
        band, kset = band_geometry
        intensity = subgrid_intensity(kset, band)
        via_numpy = self._resample(band, intensity, "numpy")
        via_torch = self._resample(band, intensity, "torch")
        assert isinstance(via_torch, np.ndarray)
        assert np.abs(via_torch - via_numpy).max() < 1e-12


@requires_torch
class TestTorchParity:
    """CPU torch vs numpy on the screening stack (CI optional-deps job)."""

    @pytest.fixture(scope="class")
    def torch_sim(self):
        return LithographySimulator(LithoConfig(
            pixel_nm=8.0, max_kernels=4,
            backend="torch", device="cpu",
        ))

    @pytest.fixture(scope="class")
    def clip(self):
        from repro.data.via_bench import generate_via_clip

        return generate_via_clip("tb1", n_vias=2, seed=41, clip_nm=1280)

    def test_sparse_epe_parity(self, numpy_sim, torch_sim, clip):
        grid = numpy_sim.grid_for(clip)
        mask = rasterize(clip.targets, grid)
        plan = measure_stencil_plan(grid, fragment_clip(clip))
        threshold = numpy_sim.config.threshold
        (ref,) = numpy_sim.simulate_epe_batch(mask[None], grid, plan)
        (got,) = torch_sim.simulate_epe_batch(mask[None], grid, plan)
        assert isinstance(got.values, np.ndarray)  # host at the boundary
        (ref_report,) = measure_epe_grouped_sparse([ref], threshold)
        (got_report,) = measure_epe_grouped_sparse([got], threshold)
        assert got_report.count == ref_report.count > 0
        assert np.abs(
            got_report.values - ref_report.values
        ).max() < EPE_TOLERANCE_NM

    def test_device_masks_accepted_at_the_boundary(self, torch_sim, clip):
        """simulate_epe_batch takes device-resident masks directly and
        still returns host numpy sparse values."""
        import torch

        grid = torch_sim.grid_for(clip)
        mask = rasterize(clip.targets, grid)
        plan = measure_stencil_plan(grid, fragment_clip(clip))
        (host_in,) = torch_sim.simulate_epe_batch(mask[None], grid, plan)
        device_masks = torch.as_tensor(mask[None], device="cpu")
        (dev_in,) = torch_sim.simulate_epe_batch(device_masks, grid, plan)
        assert isinstance(dev_in.values, np.ndarray)
        np.testing.assert_array_equal(dev_in.values, host_in.values)

    def test_dense_aerial_parity(self, numpy_sim, torch_sim):
        masks = small_mask_stack()
        grid = Grid(0, 0, 8.0, 160, 160)
        ref = numpy_sim.simulate_batch(masks, grid)
        got = torch_sim.simulate_batch(masks, grid)
        for r, g in zip(ref, got):
            assert isinstance(g.aerial, np.ndarray)
            assert np.abs(g.aerial - r.aerial).max() < 1e-12

    def test_default_dtype_float32_cannot_leak(
        self, numpy_sim, torch_sim, clip
    ):
        """The documented torch dtype policy: with the process-global
        default dtype degraded to float32, every value this package
        computes is still float64 and parity still holds."""
        import torch

        previous = torch.get_default_dtype()
        torch.set_default_dtype(torch.float32)
        try:
            grid = numpy_sim.grid_for(clip)
            mask = rasterize(clip.targets, grid)
            plan = measure_stencil_plan(grid, fragment_clip(clip))
            (ref,) = numpy_sim.simulate_epe_batch(mask[None], grid, plan)
            (got,) = torch_sim.simulate_epe_batch(mask[None], grid, plan)
            assert got.values.dtype == np.float64
            assert np.abs(got.values - ref.values).max() < 1e-12
        finally:
            torch.set_default_dtype(previous)


class TestAdapterSemantics:
    """ArrayBackend method contracts that the numpy family must honor
    bit-for-bit (the torch legs live in TestTorchParity)."""

    def test_host_movement_is_passthrough(self):
        backend = resolve_backend("numpy", 1)
        a = np.arange(6.0).reshape(2, 3)
        assert backend.to_device(a) is a
        assert backend.to_host(a) is a
        assert backend.index(a.astype(np.int64)) is not None
        assert backend.asarray_f64(a) is a  # already float64: no copy

    def test_numpy_ops_match_np_exactly(self):
        backend = resolve_backend("numpy", 1)
        rng = np.random.default_rng(9)
        stack = rng.random((2, 8, 8))
        assert np.array_equal(
            backend.rfft2(stack), np.fft.rfft2(stack, axes=(-2, -1))
        )
        assert np.array_equal(
            backend.concat([stack, stack], axis=0),
            np.concatenate([stack, stack], axis=0),
        )
        assert backend.zeros((2, 2), backend.float64).dtype == np.float64
        assert backend.empty((2, 2), backend.complex128).dtype == np.complex128

    @requires_torch
    def test_torch_adapter_round_trips(self):
        import torch

        backend = resolve_backend("torch", device="cpu")
        a = np.arange(6.0).reshape(2, 3)
        t = backend.to_device(a)
        assert isinstance(t, torch.Tensor) and t.dtype == torch.float64
        np.testing.assert_array_equal(backend.to_host(t), a)
        # Negative strides (views like a[::-1]) must not trip as_tensor.
        flipped = backend.to_device(a[::-1])
        np.testing.assert_array_equal(backend.to_host(flipped), a[::-1])
        assert backend.index(np.array([1, 0])).dtype == torch.int64

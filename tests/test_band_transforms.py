"""Band-only imaging transforms against the full 2-D transforms.

Every kernel spectrum is exactly zero outside the pupil band, so
:func:`repro.litho.kernels.raster_band`,
:meth:`~repro.litho.kernels.OpticalKernelSet.image_band` and
:meth:`~repro.litho.kernels.OpticalKernelSet.resample_intensity` run
only the 1-D passes of ``rfft2`` / ``ifft2`` / ``irfft2`` whose lines
the band touches.  Each is held here to the full transform it replaces,
as ``.view(int64)`` (bit for bit), on the serve grids (500², 375²), the
golden grid and a grid whose band is not compact (subgrid = grid), at
batch sizes 1 and 3.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.data.via_bench import generate_via_clip
from repro.geometry.raster import Grid, rasterize
from repro.litho.kernels import gather_band_rfft, raster_band
from repro.litho.simulator import LithoConfig, LithographySimulator

GOLDEN_MASK = os.path.join(os.path.dirname(__file__), "golden", "via_v1.npz")

# (pixel_nm, max_kernels, clip_nm): 500², 375², 32² (not compact).
CASES = {
    "serve500": (4.0, 12, 2000),
    "serve375": (4.0, 12, 1500),
    "golden": (8.0, 8, None),
    "noncompact": (40.0, 4, 1280),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    """``(kernel_set, band, masks)``: the focus kernel set, its band on
    the case's grid, and a ``(3, H, W)`` stack of rasterized masks."""
    pixel_nm, max_kernels, clip_nm = CASES[request.param]
    sim = LithographySimulator(
        LithoConfig(pixel_nm=pixel_nm, max_kernels=max_kernels)
    )
    if clip_nm is None:
        golden = np.load(GOLDEN_MASK)["mask"]
        masks = np.stack([golden, golden[::-1], golden.T])
    else:
        clips = [
            generate_via_clip(f"bt{i}", n_vias=3, seed=60 + i, clip_nm=clip_nm)
            for i in range(3)
        ]
        grid = sim.grid_for(clips[0])
        masks = np.stack([rasterize(clip.targets, grid) for clip in clips])
    kernel_set = sim.kernel_set(0.0)
    band = kernel_set.band_spectra(masks.shape[1:])
    assert band.compact == (request.param != "noncompact")
    return kernel_set, band, masks


def assert_bits_equal(got, expected):
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def full_rfft_band(masks, band):
    return gather_band_rfft(np.fft.rfft2(masks, axes=(-2, -1)), band)


def full_ifft_image(mask_band, band):
    """``ifft2`` of every kernel's product, then the per-kernel weighted
    sum: the imaging ``image_band`` replaced."""
    fields = np.fft.ifft2(
        mask_band[:, None] * band.sub_spectra[None], axes=(-2, -1)
    )
    intensity = np.zeros(mask_band.shape)
    for k, weight in enumerate(band.weights):
        field_k = fields[:, k]
        intensity += weight * (field_k.real**2 + field_k.imag**2)
    return intensity


def full_irfft_resample(intensity_sub, band):
    rows, cols = band.shape
    m0, m1 = band.subgrid
    half_cols = 2 * band.band[1] + 1
    spectrum = np.fft.rfft2(intensity_sub, axes=(-2, -1))
    full = np.zeros((len(spectrum), rows, cols // 2 + 1), np.complex128)
    full[:, band.up_rows_dst, :half_cols] = spectrum[
        :, band.up_rows_src, :half_cols
    ] * ((rows * cols) / (m0 * m1))
    return np.fft.irfft2(full, s=(rows, cols), axes=(-2, -1))


@pytest.mark.parametrize("batch", [1, 3])
def test_raster_band_is_rfft2_gather(case, batch):
    _, band, masks = case
    assert_bits_equal(
        raster_band(masks[:batch], band), full_rfft_band(masks[:batch], band)
    )


@pytest.mark.parametrize("batch", [1, 3])
def test_image_band_is_ifft2_per_kernel(case, batch):
    kernel_set, band, masks = case
    mask_band = full_rfft_band(masks[:batch], band)
    assert_bits_equal(
        kernel_set.image_band(mask_band, band),
        full_ifft_image(mask_band, band),
    )


@pytest.mark.parametrize("batch", [1, 3])
def test_resample_is_irfft2(case, batch):
    kernel_set, band, masks = case
    sub = full_ifft_image(full_rfft_band(masks[:batch], band), band)
    dense = kernel_set.resample_intensity(sub, band.shape)
    if not band.compact:
        assert dense is sub
        return
    assert_bits_equal(dense, full_irfft_resample(sub, band))


def test_image_band_holds_the_fields_once():
    """Eight masks on a 500² grid with 12 kernels: the batch's
    ``(B, K, m0, m1)`` fields (0.28 rasters per mask) are held once,
    plus one mask's magnitudes.  A product and a separate transform
    output, as a plain ``ifft2`` of the product holds them, read 0.84
    rasters per mask."""
    sim = LithographySimulator(LithoConfig(pixel_nm=4.0, max_kernels=12))
    grid = Grid(0.0, 0.0, 4.0, 500, 500)
    kernel_set = sim.kernel_set(0.0)
    band = kernel_set.band_spectra(grid.shape)
    assert band.count == 12
    clip = generate_via_clip("bt-mem", n_vias=3, seed=71, clip_nm=2000)
    mask_band = raster_band(
        np.repeat(rasterize(clip.targets, grid)[None], 8, axis=0), band
    )
    kernel_set.image_band(mask_band, band)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kernel_set.image_band(mask_band, band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_mask = (peak - start) / (len(mask_band) * grid.rows * grid.cols * 8)
    assert per_mask < 0.5

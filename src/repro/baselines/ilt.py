"""Pixel-based inverse lithography (extension baseline).

MOSAIC-style ILT: parameterize the mask as a sigmoid of a continuous
pixel field, differentiate the squared contour error through the SOCS
imaging model and the sigmoid resist approximation, and descend.  The
gradients are derived analytically over the FFT convolutions (this runs
on raw numpy, not the autograd framework — the images are large and the
expression is a fixed pipeline).

This is *not* part of the paper's comparison tables; it is the classic
numerical-optimization alternative (refs [5, 6] in the paper) and powers
an extension bench contrasting edge-based and pixel-based OPC.

Per-iteration coherent fields come from the kernel set's cached per-grid
band spectra (scattered to full-grid transfer functions by
:meth:`~repro.litho.kernels.OpticalKernelSet.kernel_spectra`, with
weights from :meth:`~repro.litho.kernels.OpticalKernelSet.weights_for`),
every transform runs through the set's pluggable FFT backend, and the
final corner sweep runs through the batched simulator path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.agent import OptimizeResult
from repro.errors import ConfigError
from repro.geometry.layout import Clip
from repro.geometry.raster import rasterize
from repro.litho.simulator import LithographySimulator
from repro.metrology.epe import measure_epe
from repro.metrology.pvband import pvband_area
from repro.geometry.segmentation import fragment_clip
from repro.rl.trajectory import Trajectory, TrajectoryStep


@dataclass(frozen=True)
class ILTConfig:
    """Gradient-descent settings."""

    iterations: int = 30
    step_size: float = 2.0
    mask_steepness: float = 4.0
    resist_steepness: float = 50.0
    initial_bias_logit: float = 1.5

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigError("need at least one ILT iteration")
        if self.step_size <= 0:
            raise ConfigError("step size must be positive")


class PixelILT:
    """Pixel-domain gradient-descent mask optimizer."""

    name = "ilt"

    def __init__(self, config: ILTConfig, simulator: LithographySimulator) -> None:
        self.config = config
        self.simulator = simulator

    def optimize(self, clip: Clip, **_ignored) -> OptimizeResult:
        start = time.perf_counter()
        grid = self.simulator.grid_for(clip)
        target = rasterize(clip.targets, grid).astype(np.float64)
        segments = fragment_clip(clip)
        kernel_set = self.simulator.kernel_set(0.0)
        threshold = self.simulator.config.threshold
        cfg = self.config

        # Logit field initialized from the target with a positive bias so
        # target pixels start transparent.
        field = cfg.initial_bias_logit * (2.0 * target - 1.0)
        kernel_ffts = kernel_set.kernel_spectra(target.shape)
        weights = kernel_set.weights_for(target.shape)
        fft = kernel_set.fft

        trajectory: Trajectory | None = None
        for _ in range(cfg.iterations):
            mask = _sigmoid(cfg.mask_steepness * field)
            mask_fft = fft.fft2(mask)
            fields_k = kernel_set.fields_from_mask_fft(mask_fft)
            intensity = np.zeros_like(mask)
            for w, ck in zip(weights, fields_k):
                intensity += w * (ck.real**2 + ck.imag**2)

            printed_soft = _sigmoid(cfg.resist_steepness * (intensity - threshold))
            error = printed_soft - target
            if trajectory is None:
                trajectory = Trajectory(epe_initial=float(np.abs(error).sum()))

            # dL/dI for L = sum(error^2)
            g = 2.0 * error * cfg.resist_steepness * printed_soft * (1 - printed_soft)
            grad_mask = np.zeros_like(mask)
            for w, ck, kf in zip(weights, fields_k, kernel_ffts):
                corr = fft.ifft2(fft.fft2(g * ck) * np.conj(kf))
                grad_mask += w * 2.0 * corr.real
            grad_field = (
                grad_mask * cfg.mask_steepness * mask * (1 - mask)
            )
            field -= cfg.step_size * grad_field
            trajectory.append(
                TrajectoryStep(
                    actions=np.zeros(0, dtype=int),
                    epe_after=float(np.abs(error).sum()),
                )
            )

        final_mask = (_sigmoid(cfg.mask_steepness * field) >= 0.5).astype(np.uint8)
        result = self.simulator.simulate_batch(final_mask[None], grid)[0]
        epe = measure_epe(result.aerial, grid, segments, threshold)
        pvb = pvband_area(result.inner, result.outer, grid.pixel_nm)
        runtime = time.perf_counter() - start
        return _IltOutcome(
            clip_name=clip.name,
            epe_total=epe.total_abs,
            pvband=pvb,
            mask_image=final_mask,
            trajectory=trajectory,
            runtime_s=runtime,
        )


@dataclass
class _IltOutcome:
    """ILT result record (pixel masks have no segment state)."""

    clip_name: str
    epe_total: float
    pvband: float
    mask_image: np.ndarray
    trajectory: Trajectory
    runtime_s: float
    steps: int = 0
    early_exited: bool = False

    def __post_init__(self) -> None:
        self.steps = self.trajectory.length

    @property
    def epe_curve(self) -> list[float]:
        return self.trajectory.epe_curve


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

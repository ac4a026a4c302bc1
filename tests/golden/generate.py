"""Regenerate the golden lithography reference images.

Run from the repo root:

    PYTHONPATH=src python tests/golden/generate.py

Two canonical clips are pinned: V1 (first via-layer test clip, with the
paper's initial +3 nm outward bias so the printed corners are
non-trivial) and M1 (first metal-layer test clip, unbiased).  For each
we store the rasterized input mask alongside the aerial /
defocused-aerial / three printed images, so ``test_litho_golden.py``
exercises exactly the imaging path (kernel build + FFT convolution +
resist model) without depending on the rasterizer.

Only regenerate when the lithography *physics* is intentionally changed;
the whole point of these files is that refactors — batching, caching,
backend swaps — must NOT shift the images.

Regeneration log:

* PR 3 (frequency-native kernels): the forward operator changed
  intentionally.  Kernel spectra are now built directly on each grid's
  DFT frequency lattice with *no spatial ambit crop* — the crop was an
  approximation (~0.1 max intensity perturbation against the uncropped
  operator) that PR 1/2 inherited, and removing it is what makes the
  compact pupil-band engine exact.  The images are generated by the
  single-mask spatial reference path under the numpy backend; the
  batched band engine must match them to the same 1e-9 tolerance.
* Cluster-aware SOCS truncation: at this config (8 kernels, 8 nm) the
  focus TCC's eigenvalues 8 and 9 are exactly equal on both golden
  grids, so the old cut kept whichever vector of that 2-D eigenspace
  LAPACK returned and the images differed by ~1.6e-9 across BLAS builds.
  The cut now rounds down to 7 focus kernels (the defocus set keeps 8);
  both goldens were regenerated once.
"""

from __future__ import annotations

import os

import numpy as np

from repro.constants import VIA_INITIAL_BIAS_NM
from repro.data.metal_bench import metal_test_suite
from repro.data.via_bench import via_test_suite
from repro.geometry.mask_edit import MaskState
from repro.geometry.raster import rasterize
from repro.geometry.segmentation import fragment_clip
from repro.litho.simulator import LithoConfig, LithographySimulator

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

GOLDEN_CONFIG = LithoConfig(pixel_nm=8.0, max_kernels=8, backend="numpy")
"""Fixed simulator settings for the goldens (independent of REPRO_SCALE)."""


def golden_clips():
    return {
        "via_v1": (via_test_suite()[0], float(VIA_INITIAL_BIAS_NM)),
        "metal_m1": (metal_test_suite()[0], 0.0),
    }


def generate() -> None:
    simulator = LithographySimulator(GOLDEN_CONFIG)
    for label, (clip, bias_nm) in golden_clips().items():
        grid = simulator.grid_for(clip)
        state = MaskState.initial(clip, fragment_clip(clip), bias_nm=bias_nm)
        mask = rasterize(state.mask_polygons(), grid)
        result = simulator.simulate_mask(mask, grid)
        path = os.path.join(GOLDEN_DIR, f"{label}.npz")
        np.savez_compressed(
            path,
            clip_name=clip.name,
            mask=mask,
            aerial=result.aerial,
            aerial_defocus=result.aerial_defocus,
            printed_nominal=result.printed["nominal"],
            printed_inner=result.printed["inner"],
            printed_outer=result.printed["outer"],
        )
        print(f"wrote {path}: grid {grid.shape}, aerial max {result.aerial.max():.4f}")


if __name__ == "__main__":
    generate()

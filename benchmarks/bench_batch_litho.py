"""Microbenchmark: unified band-limited engine vs the per-mask reference.

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_batch_litho.py          # full
    PYTHONPATH=src python benchmarks/bench_batch_litho.py --smoke  # CI

Three pipelines are timed on the same B=8 masks and verified against
each other before any number is reported:

* ``sequential``   — B calls of ``simulate_mask`` (the retained spatial
  reference path: one full-grid inverse FFT per kernel);
* ``batch``        — one ``simulate_batch`` call on the raster stack: a
  single real-input forward FFT (``rfft2``) feeds all three process
  corners, the kernels' inverse FFTs (one transform over all of them)
  run on the compact pupil-band subgrid, and
  each corner's dense intensity comes back through a real-arithmetic
  zero-padded resample (subgrid ``rfft2`` -> half spectrum ->
  ``irfft2``).  Both dense aerials are built lazily, on first read (the
  defocus corner is not even imaged until then); the timed call reads
  every nominal and defocus aerial, so both pipelines build the same
  dense images.
  The kernels are frequency-native (built on each grid's own frequency
  lattice, no spatial ambit crop), so this path is *exact*: it must
  match the reference to <= 1e-9 max absolute intensity and produce
  identical printed corners, which makes it legal for reported
  EPE/PV-band metrology;
* ``polygons``     — one ``simulate_batch`` call on the masks' polygon
  sets: the pupil band comes straight from the polygons' slabs (no
  raster, no full-grid FFT), then the same imaging, and its timed call
  reads the same aerials.  It must match the ``batch`` leg to <= 1e-9
  max absolute intensity with identical printed corners.  Its time is
  recorded, not gated.

The script exits non-zero if exactness fails, if per-mask results depend
on the batch size, or if the batched speedup falls below the acceptance
threshold.  A machine-readable record of every run (config, timings,
speedup, pass/fail) is written to ``BENCH_batch_litho.json`` (override
with ``--json``) so the perf trajectory is tracked across PRs instead of
living only in the gate's pass/fail output.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from bench_common import write_json

from repro.geometry.raster import Grid, rasterize
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.litho.simulator import LithoConfig, LithographySimulator

BATCH = 8
SPEEDUP_THRESHOLD = 3.0
EXACTNESS_TOLERANCE = 1e-9
DEFAULT_JSON_PATH = "BENCH_batch_litho.json"


def build_polygon_sets(grid: Grid, count: int) -> list[list[Polygon]]:
    """`count` distinct multi-via polygon sets spread over the window.

    A set's vias are mutually disjoint, as every mask's polygons are
    (``rasterize`` and the polygon band source both assume it): a
    candidate via that would touch a placed one is redrawn.
    """
    rng = np.random.default_rng(99)
    window = grid.rows * grid.pixel_nm
    masks = []
    for _ in range(count):
        rects: list[Rect] = []
        while len(rects) < 3:
            cx = float(rng.integers(400, int(window) - 400))
            cy = float(rng.integers(400, int(window) - 400))
            size = float(rng.integers(60, 120))
            rect = Rect.square(cx, cy, size)
            if not any(rect.intersects(other) for other in rects):
                rects.append(rect)
        masks.append([Polygon.from_rect(rect) for rect in rects])
    return masks


def best_of(fn, repeats: int) -> float:
    fn()  # warm caches (band spectra, kernel FFT stacks)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(
    smoke: bool,
    min_speedup: float = SPEEDUP_THRESHOLD,
    json_path: str = DEFAULT_JSON_PATH,
) -> int:
    if smoke:
        config = LithoConfig(pixel_nm=4.0, max_kernels=6)
        window_nm, repeats = 1024.0, 3
    else:
        config = LithoConfig(pixel_nm=4.0, max_kernels=8)
        window_nm, repeats = 1280.0, 5

    simulator = LithographySimulator(config)
    n = int(window_nm / config.pixel_nm)
    grid = Grid(0.0, 0.0, config.pixel_nm, n, n)
    polygon_sets = build_polygon_sets(grid, BATCH)
    masks = [rasterize(polys, grid) for polys in polygon_sets]
    stack = np.stack(masks)
    band = simulator.kernel_set(0.0).band_spectra(grid.shape)

    print(f"bench_batch_litho: grid {n}x{n} @ {config.pixel_nm} nm, "
          f"K={band.count} kernels/corner, B={BATCH}, "
          f"pupil band {band.band} on subgrid {band.subgrid} "
          f"(frequency-native, exact)")

    # -- correctness gates before any timing ------------------------------
    sequential = [simulator.simulate_mask(m, grid) for m in masks]
    batched = simulator.simulate_batch(stack, grid)
    exact_error = 0.0
    for single, result in zip(sequential, batched):
        exact_error = max(
            exact_error,
            np.abs(single.aerial - result.aerial).max(),
            np.abs(single.aerial_defocus - result.aerial_defocus).max(),
        )
        for corner in ("nominal", "inner", "outer"):
            if not np.array_equal(single.printed[corner],
                                  result.printed[corner]):
                print(f"FAIL: batched printed {corner} image diverges "
                      "from the reference path")
                return 1
    if exact_error > EXACTNESS_TOLERANCE:
        print(f"FAIL: batched engine error {exact_error:.2e} > "
              f"{EXACTNESS_TOLERANCE} vs the spatial reference")
        return 1
    alone = simulator.simulate_batch(stack[:1], grid)[0]
    if not np.array_equal(alone.aerial, batched[0].aerial) or not (
        np.array_equal(alone.aerial_defocus, batched[0].aerial_defocus)
    ):
        print("FAIL: per-mask results depend on the batch size")
        return 1
    polygon_error = 0.0
    for result, from_polygons in zip(
        batched, simulator.simulate_batch(polygon_sets, grid)
    ):
        polygon_error = max(
            polygon_error,
            np.abs(result.aerial - from_polygons.aerial).max(),
            np.abs(result.aerial_defocus - from_polygons.aerial_defocus).max(),
        )
        for corner in ("nominal", "inner", "outer"):
            if not np.array_equal(result.printed[corner],
                                  from_polygons.printed[corner]):
                print(f"FAIL: polygon-input printed {corner} image "
                      "diverges from the raster-input batch")
                return 1
    if polygon_error > EXACTNESS_TOLERANCE:
        print(f"FAIL: polygon-input error {polygon_error:.2e} > "
              f"{EXACTNESS_TOLERANCE} vs the raster-input batch")
        return 1

    # -- timing ------------------------------------------------------------
    t_seq = best_of(
        lambda: [simulator.simulate_mask(m, grid) for m in masks], repeats
    )
    # Each batched leg reads both dense aerials of every mask: the
    # corners the reference builds.
    t_batch = best_of(
        lambda: [
            (r.aerial, r.aerial_defocus)
            for r in simulator.simulate_batch(stack, grid)
        ],
        repeats,
    )
    # The raster build is part of the raster leg's input, so the
    # polygon leg is timed from the polygons.
    t_polygons = best_of(
        lambda: [
            (r.aerial, r.aerial_defocus)
            for r in simulator.simulate_batch(polygon_sets, grid)
        ],
        repeats,
    )

    per_mask = t_seq / BATCH
    print(f"  sequential simulate_mask : {t_seq * 1e3:8.1f} ms "
          f"({per_mask * 1e3:.1f} ms/mask)  [reference]")
    print(f"  simulate_batch (unified) : {t_batch * 1e3:8.1f} ms "
          f"-> {t_seq / t_batch:4.2f}x  "
          f"(max |dI| = {exact_error:.1e}, exact — legal for metrology)")
    print(f"  simulate_batch (polygons): {t_polygons * 1e3:8.1f} ms "
          f"(max |dI| vs raster input = {polygon_error:.1e})")

    speedup = t_seq / t_batch
    passed = speedup >= min_speedup
    write_json(json_path, {
        "bench": "batch_litho",
        "smoke": smoke,
        "grid": [n, n],
        "pixel_nm": config.pixel_nm,
        "kernels_per_corner": band.count,
        "pupil_band": list(band.band),
        "subgrid": list(band.subgrid),
        "batch": BATCH,
        "fft_backend": "numpy",
        "t_sequential_s": t_seq,
        "t_batch_s": t_batch,
        "t_batch_polygons_s": t_polygons,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "max_abs_intensity_error": exact_error,
        "polygon_max_abs_intensity_error": polygon_error,
        "exactness_tolerance": EXACTNESS_TOLERANCE,
        "passed": passed,
    })
    if not passed:
        print(f"FAIL: batched engine speedup {speedup:.2f}x < "
              f"{min_speedup}x threshold")
        return 1
    print(f"PASS: unified band engine reaches {speedup:.2f}x >= "
          f"{min_speedup}x over the per-mask reference at B={BATCH}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-grid CI mode (seconds, not minutes)")
    parser.add_argument("--min-speedup", type=float, default=SPEEDUP_THRESHOLD,
                        help="fail below this batched speedup (use a looser "
                             "value on noisy shared CI runners)")
    parser.add_argument("--json", default=DEFAULT_JSON_PATH, metavar="PATH",
                        help="machine-readable result file ('' disables; "
                             f"default {DEFAULT_JSON_PATH})")
    args = parser.parse_args()
    return run(smoke=args.smoke, min_speedup=args.min_speedup,
               json_path=args.json)


if __name__ == "__main__":
    sys.exit(main())

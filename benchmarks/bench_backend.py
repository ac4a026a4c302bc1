"""Microbenchmark: array/device backends on the sparse screening path.

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_backend.py          # full
    PYTHONPATH=src python benchmarks/bench_backend.py --smoke  # CI

The workload is screening-shaped: a B=8 batch of realistic via clips
through the sparse contour-point EPE pipeline (half-width forward FFT,
pupil-band subgrid convolution, direct band-spectrum gather), the hot
loop of the service's batched verifier.  The same workload runs once per
available backend:

* ``numpy``  — the host reference (bit-for-bit with the committed
  goldens); always available, always the parity baseline.
* ``torch``  — device execution (CPU always when torch is installed;
  CUDA when available).  Parity against numpy is gated unconditionally
  at <= 1e-9 nm per resolved EPE offset whenever torch is importable;
  the throughput gate requires torch CPU to be no slower than
  ``--max-slowdown`` x numpy (device adapters that
  shuttle arrays across the boundary mid-pipeline fail this fast).

When torch is not installed the benchmark records that fact in
``BENCH_backend.json`` and exits 0 — absence of an optional dependency
is not a failure, silent degradation of a requested device backend is
(and ``resolve_backend("torch")`` raising covers that path).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from bench_common import write_json

from repro.backend import resolve_backend, torch_available
from repro.data.via_bench import generate_via_clip
from repro.geometry.raster import rasterize
from repro.geometry.segmentation import fragment_clip
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.metrology.epe import measure_epe_grouped_sparse, measure_stencil_plan

BATCH = 8
PARITY_TOLERANCE_NM = 1e-9
#: torch CPU must hold at least 1/MAX_SLOWDOWN of numpy
#: throughput on the B=8 screening workload.
MAX_SLOWDOWN = 1.0
SEARCH_NM = 40.0
DEFAULT_JSON_PATH = "BENCH_backend.json"


def best_of(fn, repeats: int) -> float:
    fn()  # warm caches (band spectra, stencil plans, device copies)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def backend_configs() -> list[dict]:
    """One litho-config override set per backend worth measuring here."""
    entries = [{"label": "numpy", "backend": "numpy"}]
    if torch_available():
        entries.append({"label": "torch-cpu", "backend": "torch",
                        "device": "cpu"})
        import torch

        if torch.cuda.is_available():
            entries.append({"label": "torch-cuda", "backend": "torch",
                            "device": "cuda"})
    return entries


def run(
    smoke: bool,
    max_slowdown: float = MAX_SLOWDOWN,
    json_path: str = DEFAULT_JSON_PATH,
) -> int:
    if smoke:
        base = dict(pixel_nm=4.0, max_kernels=6)
        clip_nm, repeats = 1024.0, 3
    else:
        base = dict(pixel_nm=4.0, max_kernels=8)
        clip_nm, repeats = 1280.0, 5

    clips = [
        generate_via_clip(f"bench-b{i}", n_vias=2 + (i % 2), seed=31 + i,
                          clip_nm=clip_nm)
        for i in range(BATCH)
    ]
    reference_sim = LithographySimulator(
        LithoConfig(backend="numpy", **base)
    )
    grids = [reference_sim.grid_for(clip) for clip in clips]
    segments = [fragment_clip(clip) for clip in clips]
    stack = np.stack([
        rasterize(clip.targets, grid) for clip, grid in zip(clips, grids)
    ])
    plans = [
        measure_stencil_plan(grid, segs, search_nm=SEARCH_NM)
        for grid, segs in zip(grids, segments)
    ]
    threshold = reference_sim.config.threshold
    band = reference_sim.kernel_set(0.0).band_spectra(grids[0].shape)
    cores = os.cpu_count() or 1
    rows, cols = grids[0].shape

    print(f"bench_backend: B={BATCH} via clips, grid {rows}x{cols} @ "
          f"{base['pixel_nm']} nm, K={band.count} kernels/corner, "
          f"{cores} cores, torch "
          f"{'available' if torch_available() else 'absent'}")

    def screening_run(simulator):
        sparse = simulator.simulate_epe_batch(stack, grids[0], plans)
        return measure_epe_grouped_sparse(sparse, threshold)

    reference_reports = screening_run(reference_sim)

    results = []
    failed = False
    for entry in backend_configs():
        overrides = {
            k: v for k, v in entry.items() if k not in ("label",)
        }
        simulator = (
            reference_sim if entry["label"] == "numpy"
            else LithographySimulator(LithoConfig(**base, **overrides))
        )
        resolved = resolve_backend(entry["backend"], entry.get("device"))
        # Parity gate before any timing, against the numpy reference.
        parity = 0.0
        for ref, got in zip(reference_reports, screening_run(simulator)):
            if ref.count != got.count:
                print(f"FAIL [{entry['label']}]: point count mismatch")
                return 1
            if ref.count:
                parity = max(
                    parity, float(np.abs(ref.values - got.values).max())
                )
        if parity > PARITY_TOLERANCE_NM:
            print(f"FAIL [{entry['label']}]: EPE parity {parity:.2e} nm > "
                  f"{PARITY_TOLERANCE_NM} nm vs numpy")
            failed = True
        elapsed = best_of(lambda: screening_run(simulator), repeats)
        results.append({
            "label": entry["label"],
            "backend": resolved.name,
            "device": resolved.device,
            "t_screening_s": elapsed,
            "clips_per_s": BATCH / elapsed,
            "max_abs_epe_drift_nm": parity,
        })
        print(f"  {entry['label']:<11}: {elapsed * 1e3:8.1f} ms "
              f"({BATCH / elapsed:7.1f} clips/s, "
              f"max |dEPE| = {parity:.1e} nm)")

    t_numpy = results[0]["t_screening_s"]
    for record in results:
        record["speedup_vs_numpy"] = t_numpy / record["t_screening_s"]

    torch_cpu = next(
        (r for r in results if r["label"] == "torch-cpu"), None
    )
    gate_enforced = torch_cpu is not None
    if gate_enforced and not failed:
        slowdown = torch_cpu["t_screening_s"] / t_numpy
        if slowdown > max_slowdown:
            print(f"FAIL: torch-cpu is {slowdown:.2f}x slower than "
                  f"numpy (gate: <= {max_slowdown:.2f}x) — "
                  "device adapters are leaking host round-trips")
            failed = True

    write_json(json_path, {
        "bench": "backend",
        "smoke": smoke,
        "grid": [rows, cols],
        "pixel_nm": base["pixel_nm"],
        "kernels_per_corner": band.count,
        "batch": BATCH,
        "search_nm": SEARCH_NM,
        "cores": cores,
        "torch_available": torch_available(),
        "parity_tolerance_nm": PARITY_TOLERANCE_NM,
        "max_slowdown_vs_numpy": max_slowdown,
        "gate_enforced": gate_enforced,
        "backends": results,
        "passed": not failed,
    })
    if failed:
        return 1
    if not gate_enforced:
        print("PASS (torch not installed: numpy recorded, device gate "
              "not applicable)")
        return 0
    print(f"PASS: every installed backend holds <= {PARITY_TOLERANCE_NM} nm "
          f"EPE parity; torch-cpu at "
          f"{torch_cpu['speedup_vs_numpy']:.2f}x numpy throughput")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-grid CI mode (seconds, not minutes)")
    parser.add_argument("--max-slowdown", type=float, default=MAX_SLOWDOWN,
                        help="fail when torch-cpu exceeds this multiple of "
                             "the numpy time (use a looser "
                             "value on noisy shared CI runners)")
    parser.add_argument("--json", default=DEFAULT_JSON_PATH, metavar="PATH",
                        help="machine-readable result file ('' disables; "
                             f"default {DEFAULT_JSON_PATH})")
    args = parser.parse_args()
    return run(smoke=args.smoke, max_slowdown=args.max_slowdown,
               json_path=args.json)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark gate: the suite on worker processes vs the in-process sweep.

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_map_suite.py          # full
    PYTHONPATH=src python benchmarks/bench_map_suite.py --smoke  # CI

Three sweeps of the same via suite through
:meth:`repro.service.MaskOptService.run_suite`, the one way to reach a
worker fleet (``python -m repro optimize --workers N`` calls it):

* ``sequential`` — ``workers=1``: the in-process ``run_all`` loop builds
  the engine once and sweeps the suite, verification at the end;
* ``sharded``    — ``workers=N`` (default 4): a daemon's N spawned worker
  processes pull clips from one shared queue, share one *warm* on-disk
  kernel-spectra store (so no worker pays the TCC build), and stream
  outcomes back while the daemon's verifier drains full shape bins
  concurrently;
* ``journaled``  — the sharded sweep again with ``journal=`` armed: every
  admission and verified result is CRC-framed and fsync'd to an
  append-only outcome journal, the durability layer behind
  ``python -m repro resume``.

Results are asserted bit-for-bit identical before any number is
reported — sharding reorders work, never numbers, and journaling
observes outcomes, never changes them.  The speedup gate (>= 1.8x by
default) and the journal-overhead gate (journaled sweep <= 5% slower
than plain sharded by default, ``--max-journal-overhead``) are enforced
only on hosts with >= 4 cores; on smaller hosts the run still checks
parity and records timings, because a 1-core container cannot
demonstrate process parallelism no matter how correct the sharding is.
A machine-readable record of every run is written to
``BENCH_map_suite.json`` (override with ``--json``).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from bench_common import write_json

from repro.data.via_bench import generate_via_clip
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service import MaskOptService

WORKERS = 4
SPEEDUP_THRESHOLD = 1.8
JOURNAL_OVERHEAD_THRESHOLD = 0.05
MIN_GATE_CORES = 4
DEFAULT_JSON_PATH = "BENCH_map_suite.json"

ENGINE = "mbopc"
# No early exit: every clip runs the full update budget, so the suite is
# homogeneous and no worker is left with an expensive tail.
ENGINE_OVERRIDES = {
    "max_updates": 6,
    "initial_bias_nm": 3.0,
    "early_exit_threshold": 0.0,
}


def build_suite(count: int) -> list:
    """``count`` distinct 2048 nm via clips (512x512 @ 4 nm)."""
    return [
        generate_via_clip(f"bench{i}", n_vias=5, seed=100 + i, clip_nm=2048.0)
        for i in range(count)
    ]


def assert_identical(sharded, sequential) -> None:
    for got, ref in zip(sharded, sequential):
        if (
            got.clip_name != ref.clip_name
            or got.epe_nm != ref.epe_nm
            or got.pvband_nm2 != ref.pvband_nm2
            or got.verified_epe_nm != ref.verified_epe_nm
            or got.steps != ref.steps
        ):
            raise AssertionError(
                f"sharded result diverges on {ref.clip_name}: "
                f"epe {got.epe_nm!r} vs {ref.epe_nm!r}, "
                f"verified {got.verified_epe_nm!r} vs {ref.verified_epe_nm!r}"
            )


def run(
    smoke: bool,
    workers: int = WORKERS,
    min_speedup: float = SPEEDUP_THRESHOLD,
    max_journal_overhead: float = JOURNAL_OVERHEAD_THRESHOLD,
    json_path: str = DEFAULT_JSON_PATH,
    store_dir: str | None = None,
) -> int:
    count = 12 if smoke else 24
    config = LithoConfig(pixel_nm=4.0, max_kernels=6)
    clips = build_suite(count)

    with tempfile.TemporaryDirectory(prefix="bench-spectra-") as tmp:
        root = store_dir or tmp
        config = LithoConfig(
            pixel_nm=config.pixel_nm, max_kernels=config.max_kernels,
            spectra_store=root,
        )

        # Warm the shared store (one optimize + verification persists the
        # band spectra for the suite's single grid shape at both focus
        # settings) so neither timed sweep pays the TCC build.
        warm = MaskOptService(litho_config=config)
        warm.run_suite(
            ENGINE, clips[:1], workers=1, engine_overrides=ENGINE_OVERRIDES,
        )
        store = warm.simulator.spectra_store()
        entries = store.entry_count() if store is not None else 0

        cores = os.cpu_count() or 1
        print(f"bench_map_suite: {count} via clips, 512x512 @ 4 nm, "
              f"engine={ENGINE}, workers={workers}, {cores} cores, "
              f"warm store ({entries} entries) at {root}")

        sequential_service = MaskOptService(litho_config=config)
        t0 = time.perf_counter()
        sequential = sequential_service.run_suite(
            ENGINE, clips, workers=1, engine_overrides=ENGINE_OVERRIDES,
        )
        t_seq = time.perf_counter() - t0

        sharded_service = MaskOptService(litho_config=config)
        t0 = time.perf_counter()
        sharded = sharded_service.run_suite(
            ENGINE, clips, workers=workers,
            engine_overrides=ENGINE_OVERRIDES,
        )
        t_shard = time.perf_counter() - t0

        journal_path = os.path.join(tmp, "bench.journal")
        journaled_service = MaskOptService(litho_config=config)
        t0 = time.perf_counter()
        journaled = journaled_service.run_suite(
            ENGINE, clips, workers=workers,
            engine_overrides=ENGINE_OVERRIDES, journal=journal_path,
        )
        t_journal = time.perf_counter() - t0

        # -- correctness before speed --------------------------------------
        assert_identical(sharded, sequential)
        assert_identical(journaled, sequential)
        if not all(r.outcome == "verified" for r in sharded):
            print("FAIL: sharded sweep left results unverified")
            return 1

        speedup = t_seq / t_shard
        overhead = t_journal / t_shard - 1.0
        gated = cores >= MIN_GATE_CORES and workers >= MIN_GATE_CORES
        speedup_ok = speedup >= min_speedup or not gated
        overhead_ok = overhead <= max_journal_overhead or not gated
        passed = speedup_ok and overhead_ok

        print(f"  sequential sweep (workers=1) : {t_seq:8.2f} s "
              f"({t_seq / count * 1e3:.0f} ms/clip)  [reference]")
        print(f"  sharded sweep  (workers={workers}) : {t_shard:8.2f} s "
              f"-> {speedup:4.2f}x  (bit-for-bit identical, "
              f"{sharded_service.scheduler.batch_calls} verify flushes)")
        print(f"  journaled sweep (workers={workers}): {t_journal:8.2f} s "
              f"-> {overhead * 100:+5.1f}% vs sharded  "
              f"({count} fsync'd results at {journal_path})")

        write_json(json_path, {
            "bench": "map_suite",
            "smoke": smoke,
            "clips": count,
            "grid": [512, 512],
            "engine": ENGINE,
            "engine_overrides": ENGINE_OVERRIDES,
            "workers": workers,
            "cpu_cores": cores,
            "spectra_store_entries": entries,
            "t_sequential_s": t_seq,
            "t_sharded_s": t_shard,
            "t_journaled_s": t_journal,
            "speedup": speedup,
            "min_speedup": min_speedup,
            "journal_overhead": overhead,
            "max_journal_overhead": max_journal_overhead,
            "gate_enforced": gated,
            "verify_flushes_sharded": sharded_service.scheduler.batch_calls,
            "passed": passed,
        })

        if not gated:
            print(f"PASS (gates not enforced: needs >= {MIN_GATE_CORES} cores "
                  f"and >= {MIN_GATE_CORES} workers; host has {cores} cores) "
                  f"— parity verified, speedup {speedup:.2f}x and journal "
                  f"overhead {overhead * 100:+.1f}% recorded")
            return 0
        if not speedup_ok:
            print(f"FAIL: sharded speedup {speedup:.2f}x < {min_speedup}x "
                  f"threshold at {workers} workers")
            return 1
        if not overhead_ok:
            print(f"FAIL: journal overhead {overhead * 100:+.1f}% > "
                  f"{max_journal_overhead * 100:.0f}% of the sharded sweep")
            return 1
        print(f"PASS: process sharding reaches {speedup:.2f}x >= "
              f"{min_speedup}x at {workers} workers with a warm store; "
              f"journal costs {overhead * 100:+.1f}% "
              f"(<= {max_journal_overhead * 100:.0f}%)")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller suite for CI (seconds, not minutes)")
    parser.add_argument("--workers", type=int, default=WORKERS,
                        help=f"shard width to benchmark (default {WORKERS})")
    parser.add_argument("--min-speedup", type=float,
                        default=SPEEDUP_THRESHOLD,
                        help="fail below this sharded speedup (enforced on "
                             f">= {MIN_GATE_CORES}-core hosts; use a looser "
                             "value on noisy shared CI runners)")
    parser.add_argument("--max-journal-overhead", type=float,
                        default=JOURNAL_OVERHEAD_THRESHOLD, metavar="FRAC",
                        help="fail when the journaled sharded sweep is more "
                             "than this fraction slower than the plain one "
                             f"(default {JOURNAL_OVERHEAD_THRESHOLD})")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="reuse a spectra store directory instead of a "
                             "throwaway tempdir")
    parser.add_argument("--json", default=DEFAULT_JSON_PATH, metavar="PATH",
                        help="machine-readable result file ('' disables; "
                             f"default {DEFAULT_JSON_PATH})")
    args = parser.parse_args()
    return run(smoke=args.smoke, workers=args.workers,
               min_speedup=args.min_speedup,
               max_journal_overhead=args.max_journal_overhead,
               json_path=args.json, store_dir=args.store)


if __name__ == "__main__":
    sys.exit(main())

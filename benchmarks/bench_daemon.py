"""Benchmark gate: the 2-worker daemon vs the inline sequential sweep.

Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_daemon.py          # full
    PYTHONPATH=src python benchmarks/bench_daemon.py --smoke  # CI

Two sweeps of the same **deliberately skewed** suite (alternating large
and small via clips, so per-clip cost varies several-fold):

* ``sequential`` — ``MaskOptService.run_suite_sharded(workers=1)``, the
  inline sweep: one engine, no worker processes, clips in order;
* ``daemon`` — :class:`repro.service.MaskOptDaemon` (the always-on
  serving front door behind ``python -m repro serve``) with a 2-worker
  pool pulling from one shared task queue, so neither worker idles
  while the other grinds through a large clip.

Neither side is charged for warm-up.  The daemon's pool is spawned, its
engines built and one clip served before its clock starts, as in a
long-running daemon.  The inline sweep builds its engine and loads its
kernels on every call, so its time is the *marginal* cost of the suite:
a sweep of a warm-up pair (one clip per grid shape) plus the suite,
minus a sweep of the warm-up pair alone.  Both raw times are recorded.

Results are asserted bit-for-bit identical across the two paths before
any number is reported — the daemon moves work between processes, never
numbers (each ``optimize(clip)`` is deterministic from the spec, and
verification measurements are batch-composition independent).  The gate
(the daemon at least at parity with the sequential sweep, i.e. speedup
>= 1.0x, with every daemon worker completing at least one clip of the
timed pass) is enforced only on hosts with >= 4 cores; on smaller hosts the
run still checks parity and records timings, because a 1-core container
timeslices two workers no faster than one.  A machine-readable record
of every run is written to ``BENCH_daemon.json`` (override with
``--json``).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import tempfile
import time

from bench_common import write_json

from repro.data.via_bench import generate_via_clip
from repro.litho.simulator import LithoConfig
from repro.service import MaskOptDaemon, MaskOptService, OptRequest

WORKERS = 2
SPEEDUP_THRESHOLD = 1.0
MIN_GATE_CORES = 4
READY_TIMEOUT_S = 120.0
DEFAULT_JSON_PATH = "BENCH_daemon.json"

ENGINE = "mbopc"
ENGINE_OVERRIDES = {
    "initial_bias_nm": 3.0, "early_exit_threshold": 0.0, "max_updates": 8,
}
# The skew: even clips are 2048 nm with 4 vias, odd clips 1024 nm with
# 1 via — 4x the raster area, so per-clip cost is far from uniform.
LARGE_CLIP = {"clip_nm": 2048.0, "n_vias": 4}
SMALL_CLIP = {"clip_nm": 1024.0, "n_vias": 1}


def build_suite(count: int, prefix: str = "bench", seed: int = 300) -> list:
    """``count`` distinct via clips alternating large and small."""
    return [
        generate_via_clip(f"{prefix}{i}", seed=seed + i,
                          **(LARGE_CLIP if i % 2 == 0 else SMALL_CLIP))
        for i in range(count)
    ]


def sequential_sweep(clips, config) -> tuple[list, float]:
    """The baseline: the inline ``workers=1`` sweep, clips in order.
    Returns the results and the wall time of the call."""
    t0 = time.perf_counter()
    results = MaskOptService(litho_config=config).run_suite_sharded(
        ENGINE, clips, workers=1, engine_overrides=ENGINE_OVERRIDES,
    )
    return results, time.perf_counter() - t0


async def daemon_sweep(
    clips, config, workers: int,
) -> tuple[list, float, list[int]]:
    """Warm the daemon's pool (one request, then every worker ready),
    then time one pass: submit the whole suite, await every result.
    Also returns how many clips of the pass each worker completed."""
    daemon = MaskOptDaemon(
        litho_config=config, workers=workers, max_pending=len(clips) + 1,
    )

    def request(clip) -> OptRequest:
        return OptRequest(
            clip=clip, engine=ENGINE, engine_overrides=ENGINE_OVERRIDES,
        )

    def per_worker() -> list[int]:
        return daemon.stats()["pools"][0]["per_worker_completed"]

    async with daemon:
        await daemon.result(await daemon.submit(request(clips[1])))
        ready_by = time.monotonic() + READY_TIMEOUT_S
        while daemon.stats()["pools"][0]["workers_ready"] < workers:
            if time.monotonic() > ready_by:
                raise RuntimeError(
                    f"daemon workers not ready after {READY_TIMEOUT_S:.0f} s"
                )
            await asyncio.sleep(0.01)
        before = per_worker()
        t0 = time.perf_counter()
        tickets = [await daemon.submit(request(clip)) for clip in clips]
        results = [await daemon.result(ticket) for ticket in tickets]
        elapsed = time.perf_counter() - t0
        done = [after - prior for after, prior in zip(per_worker(), before)]
        return results, elapsed, done


def assert_identical(daemon, sequential) -> None:
    for got, ref in zip(daemon, sequential):
        if (
            got.clip_name != ref.clip_name
            or got.epe_nm != ref.epe_nm
            or got.pvband_nm2 != ref.pvband_nm2
            or got.verified_epe_nm != ref.verified_epe_nm
            or got.steps != ref.steps
        ):
            raise AssertionError(
                f"daemon and sequential sweep diverge on {ref.clip_name}: "
                f"epe {got.epe_nm!r} vs {ref.epe_nm!r}, "
                f"verified {got.verified_epe_nm!r} vs {ref.verified_epe_nm!r}"
            )


def run(
    smoke: bool,
    workers: int = WORKERS,
    min_speedup: float = SPEEDUP_THRESHOLD,
    json_path: str = DEFAULT_JSON_PATH,
    store_dir: str | None = None,
) -> int:
    count = 12 if smoke else 24
    clips = build_suite(count)
    warmup_pair = build_suite(2, prefix="warmup", seed=900)

    with tempfile.TemporaryDirectory(prefix="bench-spectra-") as tmp:
        root = store_dir or tmp
        config = LithoConfig(pixel_nm=8.0, max_kernels=6,
                             spectra_store=root)

        # Warm the shared store (one clip of each grid shape) so no
        # timed sweep pays a TCC build.
        warm = MaskOptService(litho_config=config)
        warm.run_suite_sharded(
            ENGINE, clips[:2], workers=1,
            engine_overrides=ENGINE_OVERRIDES,
        )
        store = warm.simulator.spectra_store()
        entries = store.entry_count() if store is not None else 0

        cores = os.cpu_count() or 1
        print(f"bench_daemon: {count} via clips (alternating "
              f"{LARGE_CLIP['clip_nm']:.0f} nm / "
              f"{SMALL_CLIP['clip_nm']:.0f} nm skew), "
              f"engine={ENGINE}, workers={workers}, {cores} cores, "
              f"warm store ({entries} entries) at {root}")

        _, t_warmup = sequential_sweep(warmup_pair, config)
        with_warmup, t_with_warmup = sequential_sweep(
            warmup_pair + clips, config
        )
        sequential = with_warmup[len(warmup_pair):]
        t_sequential = t_with_warmup - t_warmup

        steal, t_steal, per_worker = asyncio.run(
            daemon_sweep(clips, config, workers)
        )

        # -- correctness before speed --------------------------------------
        assert_identical(steal, sequential)
        if not all(r.outcome == "verified" for r in steal):
            print("FAIL: daemon sweep left results unverified")
            return 1

        speedup = t_sequential / t_steal
        gated = cores >= MIN_GATE_CORES and workers >= 2
        every_worker_busy = all(done > 0 for done in per_worker)
        passed = (speedup >= min_speedup and every_worker_busy) or not gated

        print(f"  sequential sweep (workers=1)       : "
              f"{t_sequential:8.2f} s  [baseline; "
              f"{t_with_warmup:.2f} s - {t_warmup:.2f} s warm-up pair]")
        print(f"  daemon           (workers={workers})       : "
              f"{t_steal:8.2f} s -> {speedup:4.2f}x  "
              f"(bit-for-bit identical; per-worker clips {per_worker})")

        write_json(json_path, {
            "bench": "daemon",
            "smoke": smoke,
            "clips": count,
            "engine": ENGINE,
            "engine_overrides": ENGINE_OVERRIDES,
            "large_clip": LARGE_CLIP,
            "small_clip": SMALL_CLIP,
            "workers": workers,
            "cpu_cores": cores,
            "spectra_store_entries": entries,
            "warmup": "excluded on both sides: daemon pool warmed before "
                      "its clock; sequential = sweep(warm-up pair + suite) "
                      "- sweep(warm-up pair)",
            "t_sequential_s": t_sequential,
            "t_sequential_with_warmup_pair_s": t_with_warmup,
            "t_warmup_pair_s": t_warmup,
            "t_steal_s": t_steal,
            "per_worker_completed": per_worker,
            "speedup": speedup,
            "min_speedup": min_speedup,
            "gate_enforced": gated,
            "passed": passed,
        })

        if not gated:
            print(f"PASS (gate not enforced: needs >= {MIN_GATE_CORES} "
                  f"cores and >= 2 workers; host has {cores} cores) — "
                  f"parity verified, speedup {speedup:.2f}x recorded")
            return 0
        if not every_worker_busy:
            print(f"FAIL: a daemon worker completed no clip of the timed "
                  f"pass (per-worker clips {per_worker})")
            return 1
        if not passed:
            print(f"FAIL: daemon speedup {speedup:.2f}x < "
                  f"{min_speedup}x vs the sequential sweep on a skewed "
                  f"suite at {workers} workers")
            return 1
        print(f"PASS: daemon reaches {speedup:.2f}x >= "
              f"{min_speedup}x vs the sequential sweep on a skewed suite")
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller suite for CI (seconds, not minutes)")
    parser.add_argument("--workers", type=int, default=WORKERS,
                        help=f"daemon pool width (default {WORKERS})")
    parser.add_argument("--min-speedup", type=float,
                        default=SPEEDUP_THRESHOLD,
                        help="fail below this daemon-vs-sequential speedup "
                             f"(enforced on >= {MIN_GATE_CORES}-core "
                             "hosts)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="reuse a spectra store directory instead of "
                             "a throwaway tempdir")
    parser.add_argument("--json", default=DEFAULT_JSON_PATH, metavar="PATH",
                        help="machine-readable result file ('' disables; "
                             f"default {DEFAULT_JSON_PATH})")
    args = parser.parse_args()
    return run(smoke=args.smoke, workers=args.workers,
               min_speedup=args.min_speedup, json_path=args.json,
               store_dir=args.store)


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, run its timed region, report.

Started by ``run.py`` in a fresh interpreter for every set-up and run,
so each one pays imports and the cold kernel-spectra build.  Prints one
``PERFBENCH <json>`` line on standard output.

    python3 perfbench/worker.py --workload serve --seed 0 --seconds 20 \
        [--setup-only] [--spans] [--trace-out PATH]
"""

from __future__ import annotations

import os
import sys
import time


def main(argv: list[str]) -> None:
    import argparse
    import gc
    import json
    import resource
    from pathlib import Path

    from host import HostSampler, host_ref_s, provenance, summarize

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    with HostSampler() as setup_host:
        from tracer import Recorder, install
        from workloads import WORKLOADS

        recorder = Recorder(spans=args.spans)
        install(recorder)
        run = WORKLOADS[args.workload](args.seed, args.seconds)
    report = {"ready": time.monotonic(), "setup_speed": setup_host.speed()}
    if not args.setup_only:
        before = host_ref_s()
        gc.collect()
        recorder.phase = recorder.request = "timed"
        with HostSampler() as timed_host:
            start = time.perf_counter()
            records = run()
            wall_s = time.perf_counter() - start
        recorder.phase = recorder.request = "after"
        report.update(
            wall_s=wall_s,
            speed=timed_host.speed(),
            records=records,
            counts=recorder.counts,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            host=summarize(before, host_ref_s()),
            provenance=provenance(Path(__file__).resolve().parent.parent),
        )
        if args.spans:
            report["layers"] = {
                phase: recorder.layer_times(phase)
                for phase in ("setup", "timed")
            }
            report["spans"] = len(recorder.names)
            if args.trace_out:
                recorder.dump(args.trace_out)
    print("PERFBENCH " + json.dumps(report), flush=True)


if __name__ == "__main__":
    # Single-threaded BLAS/OpenMP and a cold spectra build, fixed before
    # main() first imports numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("REPRO_SPECTRA_STORE", None)
    main(sys.argv[1:])

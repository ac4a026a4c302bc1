"""End-to-end benchmark of the CAMO pipeline: one command per workload.

    python3 perfbench/run.py --workload {via_train,metal_opt,serve} \
        --seed N --seconds S --trace {0,1}

It benchmarks the ``src/repro`` next to this directory and fails
without a result when there is none.  Every set-up and run happens
single-process in a fresh interpreter (``worker.py``), with one BLAS
thread and a cold kernel-spectra build.

End-to-end metrics: ``setup_s`` (process launch to ready), ``wall_s``
(the timed region), ``clips_per_s``, ``latency_p50_s`` (per clip class,
the median time of one engine ``optimize`` or one request; averaged
over the classes a workload runs), ``epe_nm`` (summed verified EPE),
``pvb_nm2`` (summed PV band), ``peak_rss_mb`` and ``verified_ratio``
(requests verified over requests attempted).  Times are reported at the
reference host speed: each measured time is scaled by the host speed
sampled during the same phase (``host.HostSampler``), because the
speed of a shared host wanders by up to 2x between runs.  The measured
times are printed too.

``--trace 0`` sets the workload up three times (two set-up-only
processes, then the measured one) and reports the end-to-end metrics:
the median set-up time and the untraced run's figures.  ``--trace 1``
runs the workload twice, untraced and then traced, checks that both
did identical work, and reports each layer's busy or self time, share
and exact counts, plus the tracing overhead.  The untraced runs count
calls at the layer boundaries but read no clock there.

Both modes check the outputs: every request must come back verified
with finite EPE and PV band, and with ``--trace 1`` every counter and
every verified EPE must match between the two runs.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric with its unit, the latency sample counts, the host probe
and provenance.  Spans and run records go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("via_train", "metal_opt", "serve")
SETUPS = 3
TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "clips_per_s": "1/s",
    "latency_p50_s": "s",
    "epe_nm": "nm",
    "pvb_nm2": "nm2",
    "peak_rss_mb": "MB",
    "verified_ratio": "ratio",
}

LAYERS = (
    "nn", "core", "squish", "rl", "litho", "metrology", "geometry",
    "service", "baselines",
)

PER_LAYER = {
    "nn.backward_s": "s",
    "nn.backward_calls": "count",
    "nn.optim_step_s": "s",
    "nn.optim_steps": "count",
    "core.policy_forward_s": "s",
    "core.policy_forward_calls": "count",
    "squish.encode_s": "s",
    "squish.encode_calls": "count",
    "rl.env_self_s": "s",
    "rl.env_steps": "count",
    "rl.teacher_rollout_s": "s",
    "litho.simulate_s": "s",
    "litho.masks_simulated": "count",
    "litho.epe_sim_s": "s",
    "litho.epe_masks": "count",
    "litho.kernel_build_s": "s",
    "metrology.epe_s": "s",
    "metrology.calls": "count",
    "geometry.rasterize_s": "s",
    "geometry.rasterize_calls": "count",
    "service.verify_s": "s",
    "service.verify_flushes": "count",
    "service.items_per_flush": "ratio",
    "service.dispatch_self_s": "s",
    "baselines.mbopc_self_s": "s",
    "train.samples": "count",
    "train.samples_per_s": "1/s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share_pct": "%" for layer in LAYERS},
    "other.share_pct": "%",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "host.ref_s": "s",
}


class BenchError(RuntimeError):
    """A worker process failed; the run has no result."""


def _env() -> dict:
    """The worker's environment (it pins its own thread counts).  A fixed
    hash seed keeps set iteration, and so every counter, equal between
    processes."""
    return {
        **os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
    }


def _spawn(args, deadline: float, *flags: str) -> dict:
    """Run one worker to completion; its set-up time runs from launch."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *flags,
    ]
    launch = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - launch),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {flags} timed out") from None
    lines = [
        line for line in done.stdout.splitlines()
        if line.startswith("PERFBENCH ")
    ]
    if done.returncode or not lines:
        raise BenchError(f"worker {flags} exited with {done.returncode}")
    report = json.loads(lines[-1][len("PERFBENCH "):])
    report["setup_measured_s"] = report["ready"] - launch
    report["setup_s"] = report["setup_measured_s"] * report["setup_speed"]
    return report


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _check(report: dict) -> list[str]:
    problems = []
    for record in report["records"]:
        if record["outcome"] != "verified":
            problems.append(f"{record['request']}: {record['outcome']}")
        elif not (_finite(record["verified_epe_nm"])
                  and _finite(record["pvb_nm2"])):
            problems.append(f"{record['request']}: non-finite EPE or PVB")
    return problems


def _failed(report: dict) -> int:
    return sum(r["outcome"] != "verified" for r in report["records"])


def _latency_summary(records: list[dict]) -> dict[str, dict]:
    """Per clip class: sample count, median and the highest percentile
    with at least ten samples beyond it."""
    out = {}
    for cls in sorted({r["class"] for r in records}):
        values = sorted(r["latency_s"] for r in records if r["class"] == cls)
        entry = {"n": len(values), "p50_s": statistics.median(values)}
        q = math.floor(100 * (1 - 10 / len(values)))
        if q > 50:
            entry[f"p{q}_s"] = statistics.quantiles(values, n=100)[q - 1]
        out[cls] = entry
    return out


def end_to_end(main: dict, setups: list[float]) -> dict[str, float]:
    records = main["records"]
    verified = [r for r in records if r["outcome"] == "verified"]
    classes = _latency_summary(records)
    wall = main["wall_s"] * main["speed"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "clips_per_s": len(records) / wall,
        "latency_p50_s": main["speed"] * statistics.fmean(
            entry["p50_s"] for entry in classes.values()
        ),
        "epe_nm": sum(r["verified_epe_nm"] for r in verified),
        "pvb_nm2": sum(r["pvb_nm2"] for r in verified),
        "peak_rss_mb": main["peak_rss_mb"],
        "verified_ratio": len(verified) / len(records),
    }


def per_layer(traced: dict, plain: dict) -> dict[str, float]:
    timed = traced["layers"]["timed"]
    setup = traced["layers"]["setup"]
    counts = traced["counts"].get("timed", {})

    def busy(*names, spans=timed):
        return sum(spans.get(n, {}).get("busy", 0.0) for n in names)

    def self_time(prefix):
        return sum(v["self"] for n, v in timed.items()
                   if n.split(".")[0] == prefix)

    def count(key):
        return counts.get(key, 0)

    wall = traced["wall_s"]
    flushes = count("service.verify.calls")
    train_s = busy("core.train")
    metrics = {
        "nn.backward_s": busy("nn.backward"),
        "nn.backward_calls": count("nn.backward.calls"),
        "nn.optim_step_s": busy("nn.optim_step", "nn.clip_grad_norm"),
        "nn.optim_steps": count("nn.optim_step.calls"),
        "core.policy_forward_s": busy("core.policy_forward"),
        "core.policy_forward_calls": count("core.policy_forward.calls"),
        "squish.encode_s": busy("squish.encode"),
        "squish.encode_calls": count("squish.encode.calls"),
        "rl.env_self_s": timed.get("rl.env", {}).get("self", 0.0),
        "rl.env_steps": count("rl.env.steps"),
        "rl.teacher_rollout_s": busy("rl.teacher_rollout"),
        "litho.simulate_s": busy("litho.simulate"),
        "litho.masks_simulated": count("litho.simulate.masks"),
        "litho.epe_sim_s": busy("litho.epe_sim"),
        "litho.epe_masks": count("litho.epe_sim.masks"),
        "litho.kernel_build_s": busy("litho.kernel_build")
        + busy("litho.kernel_build", spans=setup),
        "metrology.epe_s": busy("metrology.epe"),
        "metrology.calls": count("metrology.epe.calls"),
        "geometry.rasterize_s": busy("geometry.rasterize"),
        "geometry.rasterize_calls": count("geometry.rasterize.calls"),
        "service.verify_s": busy("service.verify"),
        "service.verify_flushes": flushes,
        "service.items_per_flush": (
            count("service.verify.items") / flushes if flushes else 0.0
        ),
        "service.dispatch_self_s": timed.get(
            "service.dispatch", {}).get("self", 0.0),
        "baselines.mbopc_self_s": timed.get(
            "baselines.mbopc", {}).get("self", 0.0),
        "train.samples": count("nn.optim_step.calls") if train_s else 0,
        "train.samples_per_s": (
            count("nn.optim_step.calls") / train_s if train_s else 0.0
        ),
    }
    covered = 0.0
    for layer in LAYERS:
        spent = self_time(layer)
        covered += spent
        metrics[f"{layer}.self_s"] = spent
        metrics[f"{layer}.share_pct"] = 100.0 * spent / wall
    metrics["other.share_pct"] = 100.0 * (wall - covered) / wall
    # Compared at the reference host speed, as the two runs saw different
    # host speeds.
    traced_s = wall * traced["speed"]
    plain_s = plain["wall_s"] * plain["speed"]
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    metrics["trace.spans"] = traced["spans"]
    metrics["host.ref_s"] = traced["host"]["ref_s"]
    return metrics


def _compare(plain: dict, traced: dict) -> list[str]:
    """Tracing must not change the work done or what it produced."""
    problems = []
    keys = {
        (phase, key) for report in (plain, traced)
        for phase, counts in report["counts"].items() for key in counts
    }
    for phase, key in sorted(keys):
        a = plain["counts"].get(phase, {}).get(key)
        b = traced["counts"].get(phase, {}).get(key)
        if a != b:
            problems.append(f"counter {phase}/{key}: {a} untraced, {b} traced")
    for a, b in zip(plain["records"], traced["records"]):
        if a["verified_epe_nm"] != b["verified_epe_nm"]:
            problems.append(f"{a['request']}: traced verified EPE differs")
    if len(plain["records"]) != len(traced["records"]):
        problems.append("traced and untraced runs made different requests")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    try:
        if args.trace:
            plain = _spawn(args, deadline)
            traced = _spawn(
                args, deadline, "--spans",
                "--trace-out", str(OUT / f"trace-{tag}.json"),
            )
            main_report = traced
            problems = _check(plain) + _check(traced) + _compare(plain, traced)
            metrics = per_layer(traced, plain)
            units = PER_LAYER
        else:
            setups = [
                _spawn(args, deadline, "--setup-only")["setup_s"]
                for _ in range(SETUPS - 1)
            ]
            main_report = _spawn(args, deadline)
            setups.append(main_report["setup_s"])
            problems = _check(main_report)
            metrics = end_to_end(main_report, setups)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    latency = _latency_summary(main_report["records"])
    with open(OUT / f"run-{tag}.json", "w") as handle:
        json.dump({"metrics": metrics, "latency": latency,
                   "problems": problems, **main_report}, handle, indent=1)
    print(f"# {tag}  provenance {json.dumps(main_report['provenance'])}")
    host = main_report["host"]
    print(f"# host.ref_s {host['ref_s']:.4f} s "
          f"(before {host['before_s']:.4f}, after {host['after_s']:.4f})")
    print(f"# measured: wall {main_report['wall_s']:.4f} s at host speed "
          f"{main_report['speed']:.4f}, set-up "
          f"{main_report['setup_measured_s']:.4f} s at host speed "
          f"{main_report['setup_speed']:.4f}")
    for cls, entry in latency.items():
        extra = " ".join(f"{k} {v:.4f}" for k, v in entry.items() if k != "n")
        print(f"# measured latency {cls}: n {entry['n']} {extra}")
    if args.trace:
        shares = {layer: metrics[f"{layer}.share_pct"] for layer in LAYERS}
        print(f"# largest self-time share: {max(shares, key=shares.get)}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for problem in problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(main_report["records"]),
        "failed": _failed(main_report),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Tiny-size self-test of the benchmark (a few minutes on 2 cores).

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload, runs ``run.py --seconds 1`` twice untraced and twice
traced with one seed, and checks that

* every metric ``BENCHMARK.json`` names is printed with its unit, both
  as a text line and in the final JSON object, and nothing else is;
* every run is correct and attempted at least one request;
* ``epe_nm``, ``pvb_nm2`` and every per-layer counter repeat exactly
  across the two invocations.

Last, it checks that the benchmark exits non-zero without printing a
result in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATED = ("epe_nm", "pvb_nm2")


def _run(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=600,
    )


def _result(workload: str, trace: int) -> dict:
    done = _run(workload, trace)
    if done.returncode:
        raise SystemExit(f"{workload} trace {trace}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1 or result["failed"]:
        raise SystemExit(f"{workload} trace {trace}: incorrect run {result}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        raise SystemExit(f"{workload} trace {trace}: metric names differ")
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if result["metrics"][name]["unit"] != unit:
            raise SystemExit(f"{workload}: {name} has the wrong unit")
        if not any(
            line.startswith(f"{name} ") and line.endswith(f" {unit}")
            for line in lines[:-1]
        ):
            raise SystemExit(f"{workload}: {name} not printed with {unit}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def check_workload(workload: str) -> None:
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for trace, names in ((0, REPEATED), (1, counts)):
        first, second = _result(workload, trace), _result(workload, trace)
        for name in names:
            if first[name] != second[name]:
                raise SystemExit(
                    f"{workload}: {name} {first[name]} != {second[name]}"
                )
    print(f"ok {workload}")


def check_bare() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("serve", 0, root=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        raise SystemExit("benchmark ran without a program to benchmark")
    print("ok bare directory fails")


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in SPEC["workloads"]],
    )
    args = parser.parse_args(argv)
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        check_workload(workload)
    check_bare()


if __name__ == "__main__":
    main(sys.argv[1:])

"""The shared bench-record writer stamps provenance on every record."""

import importlib.util
import json
from pathlib import Path

BENCH_COMMON = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "bench_common.py"
)


def load_bench_common():
    spec = importlib.util.spec_from_file_location("bench_common", BENCH_COMMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_write_json_stamps_provenance(tmp_path):
    bench_common = load_bench_common()
    target = tmp_path / "BENCH_probe.json"
    bench_common.write_json(str(target), {"bench": "probe", "passed": True})
    record = json.loads(target.read_text())
    assert record["bench"] == "probe" and record["passed"] is True
    stamp = record["provenance"]
    assert set(stamp) == {
        "git_sha", "nproc", "python", "numpy", "scipy", "blas",
        "timestamp_utc",
    }
    assert stamp["nproc"] >= 1
    assert stamp["numpy"] and stamp["python"]
    assert stamp["timestamp_utc"].endswith("+00:00")

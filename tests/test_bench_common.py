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


def _backend_names(node):
    """Every ``fft_backend`` value anywhere in a JSON record."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "fft_backend":
                yield value
            yield from _backend_names(value)
    elif isinstance(node, list):
        for value in node:
            yield from _backend_names(value)


def test_committed_records_name_a_live_backend():
    """A committed ``BENCH_*.json`` that records an FFT backend names
    numpy, the one the repo has, so no record describes a retired path."""
    records = sorted(BENCH_COMMON.parent.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        for name in _backend_names(json.loads(path.read_text())):
            assert name == "numpy", f"{path.name}: {name!r}"

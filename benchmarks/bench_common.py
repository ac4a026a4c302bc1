"""Shared helpers for the benchmark gate scripts."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
"""Repository root: bare ``BENCH_<name>.json`` filenames are anchored
here so the records land in the tracked tree (the in-repo perf
trajectory) no matter which directory the gate is launched from.
Explicit paths (anything with a directory component) are honoured
as-is."""


def _resolve(path: str) -> Path:
    target = Path(path)
    if not target.is_absolute() and target.parent == Path("."):
        return REPO_ROOT / target
    return target


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _blas() -> str | None:
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if not blas:
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def provenance() -> dict:
    """Code, host and library identity of a bench run: the fields
    ``perfbench`` records carry, plus a UTC timestamp, so the committed
    ``BENCH_*.json`` files form a trajectory."""
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def write_json(path: str, record: dict) -> None:
    """Persist one machine-readable bench record, stamped with its
    :func:`provenance` (best-effort: a read-only workspace must not turn
    a passing gate into a failure)."""
    if not path:
        return
    target = _resolve(path)
    record = {**record, "provenance": provenance()}
    try:
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {target}")
    except OSError as exc:  # pragma: no cover - environment-dependent
        print(f"warning: could not write {target}: {exc}")

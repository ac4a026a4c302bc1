"""Host speed probes and provenance for the CAMO pipeline benchmark.

The drift probe times one fixed numpy GEMM + FFT kernel.  Run before
and after every timed region, it lets a reader tell host drift (the
probe moved too) from a code change (only the workload moved).

The speed of a shared 2-core host wanders by up to 2x over minutes,
and a fixed kernel timed in blocks of 5 to 60 s spreads 12-16%
(interquartile range over median) at every block length, so no run
length averages the drift out.  :class:`HostSampler` therefore times a
small cache-resident kernel every quarter second *during* set-up and
the timed region, and the benchmark reports times at the reference host
speed: measured time scaled by :data:`REF_SAMPLE_S` over the median
sample.
"""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np


def host_ref_s(reps: int = 3) -> list[float]:
    """Seconds per rep of a fixed 20 x (256^2 GEMM + 512^2 FFT) kernel."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((256, 256))
    image = rng.standard_normal((512, 512))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(20):
            matrix @ matrix
            np.fft.fft2(image)
        times.append(time.perf_counter() - start)
    return times


REF_SAMPLE_S = 6.5e-4
"""One :class:`HostSampler` sample on the reference host (2-core VM,
OpenBLAS 0.3.31, one thread)."""


class HostSampler:
    """Times a small fixed kernel every ``period_s`` of wall time while
    active, from a ``SIGALRM`` handler in the main thread, so the
    samples cover the same seconds as the work around them.

    The kernel (a 48x48 GEMM and a Python loop, under a millisecond)
    stays in the core's own cache: it reads the core's speed without
    competing with the workload for cache, which would make the speed
    depend on the code under test."""

    def __init__(self, period_s: float = 0.25) -> None:
        self._matrix = np.random.default_rng(1).standard_normal((48, 48))
        self.period_s = period_s
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        for _ in range(8):
            self._matrix @ self._matrix
        sum(range(20000))
        self.samples.append(time.perf_counter() - start)

    def speed(self) -> float:
        """Reference-host seconds per measured second."""
        if not self.samples:
            self._sample(None, None)
        return REF_SAMPLE_S / statistics.median(self.samples)

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def provenance(root: Path) -> dict:
    """Code and library identity: git sha when the tree is a git
    checkout, a digest of ``src/`` always, core count, library versions."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    info = {
        "src_sha256": digest.hexdigest()[:16],
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }
    try:
        import scipy
        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    return info


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
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


def summarize(before: list[float], after: list[float]) -> dict:
    return {
        "before_s": statistics.median(before),
        "after_s": statistics.median(after),
        "ref_s": statistics.median(before + after),
    }

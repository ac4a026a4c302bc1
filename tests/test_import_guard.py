"""Cold start pays only for the backend it runs.

``repro.backend`` imports ``torch`` on the first use of the torch
backend, not at ``import repro``, and no module of the package imports
scipy: a numpy-only process loads neither.  The runtime checks use a
fresh interpreter, because the test process itself may already hold
either module.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

NUMPY_ONLY = """
import json, sys
import repro, repro.service, repro.core.agent, repro.eval.experiments
from repro.data.via_bench import generate_via_clip
from repro.litho.simulator import LithoConfig
from repro.service import MaskOptService, OptRequest

service = MaskOptService(
    litho_config=LithoConfig(backend="numpy", pixel_nm=8.0, max_kernels=4)
)
clip = generate_via_clip("guard", n_vias=2, seed=7, clip_nm=1024.0)
for engine, overrides in (
    ("mbopc", {"max_updates": 2}),
    ("camo", {"encode_size": 16, "imitation_epochs": 0, "rl_epochs": 0}),
):
    service.submit(OptRequest(
        clip=clip, engine=engine, engine_overrides=overrides,
        optimize_kwargs={"max_updates": 2},
    ))
outcomes = [result.outcome for result in service.run_all()]
print(json.dumps({
    "outcomes": outcomes,
    "loaded": sorted(m for m in ("scipy", "torch") if m in sys.modules),
}))
"""

RESOLVE = """
import json, sys
from repro.backend import resolve_backend

before = {NAME!r} in sys.modules
backend = resolve_backend({NAME!r})
print(json.dumps({{
    "before": before,
    "after": {NAME!r} in sys.modules,
    "name": backend.name,
}}))
"""


def _run(script: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_numpy_process_never_imports_scipy_or_torch():
    report = _run(NUMPY_ONLY)
    assert report["outcomes"] == ["verified", "verified"]
    assert report["loaded"] == []


@pytest.mark.parametrize("name", ["torch"])
def test_resolving_a_backend_imports_its_library(name):
    if importlib.util.find_spec(name) is None:
        pytest.skip(f"{name} not installed")
    report = _run(RESOLVE.format(NAME=name))
    assert report == {"before": False, "after": True, "name": name}


def test_no_module_imports_scipy():
    """numpy is the one host transform: a scipy import anywhere in the
    package would make its numbers depend on what the host installed."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno} {name}"
                for name in names
                if name == "scipy" or name.startswith("scipy.")
            ]
    assert offenders == []

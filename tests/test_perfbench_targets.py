"""Every name the end-to-end benchmark's layer tracer wraps still exists.

``perfbench/tracer.py`` wraps functions and methods of ``repro`` by name,
so a rename under ``src/`` would otherwise surface only when the
benchmark runs.  The tracer is loaded by path and only read (its
``install`` is never called); each target resolves the way ``install``
resolves it: a function is an attribute of its module, and a method is
defined on its owner class itself, not inherited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attribute) for module, attribute, _, _ in tracer.TARGETS]


TARGETS = _targets()


def test_tracer_has_targets():
    assert len(TARGETS) > 0


@pytest.mark.parametrize(
    "module_name, attribute", TARGETS,
    ids=[f"{module}:{attribute}" for module, attribute in TARGETS],
)
def test_target_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    owner_name, _, name = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert name in vars(owner), (
            f"{module_name}.{owner_name} does not define {name} itself"
        )
        assert callable(vars(owner)[name])
    else:
        assert callable(getattr(module, name))

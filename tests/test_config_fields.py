"""Every engine and litho config field has a reader.

A config field that no code outside its own class reads is a knob that
changes nothing: setting it is silently ignored.  This test parses every
module under ``src/repro`` and requires each field of the configs below
to be read as an attribute (``config.<field>``) or through
``getattr(..., "<field>", ...)`` somewhere other than the config's own
class body, where only validation and profiles live.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.baselines.damo import DamoConfig
from repro.baselines.ilt import ILTConfig
from repro.baselines.mbopc import MBOPCConfig
from repro.baselines.rlopc import RLOPCConfig
from repro.core.config import CamoConfig
from repro.litho.simulator import LithoConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

CONFIGS = [
    CamoConfig, RLOPCConfig, MBOPCConfig, DamoConfig, ILTConfig, LithoConfig,
]


def _reads_outside(class_name: str) -> set[str]:
    """Attribute names read anywhere in ``src/repro`` outside the body of
    a class called ``class_name``."""
    names: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.add(node.args[1].value)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return names


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_config_field_is_read(config):
    reads = _reads_outside(config.__name__)
    unread = [
        field.name for field in dataclasses.fields(config)
        if field.name not in reads
    ]
    assert not unread, (
        f"{config.__name__} fields read nowhere in src/: {unread}"
    )

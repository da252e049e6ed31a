"""The benchmark's traced mode wraps library functions at the module bindings
listed in ``perfbench/layers.py``; a refactor that drops one of them would
break only that run, so this suite checks every binding still resolves."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _bindings() -> list[tuple[str, str]]:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BINDINGS"]:
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"{LAYERS} assigns no BINDINGS list")


def test_every_traced_binding_resolves():
    bindings = _bindings()
    assert bindings
    missing = []
    for module, attr in bindings:
        obj = importlib.import_module(f"streamcert.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, missing

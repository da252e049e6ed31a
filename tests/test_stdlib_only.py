"""The package imports nothing outside the standard library, and exports
only names it defines."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import streamcert

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "streamcert"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (path.name, module)


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from streamcert import *", namespace)  # a stale name raises AttributeError
    assert set(streamcert.__all__) <= namespace.keys()

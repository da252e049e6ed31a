"""The package imports nothing outside the standard library, and exports
only names it defines and something outside the tests calls; each public
method of its classes has a caller outside the tests too, and each field of
its dataclasses and each attribute its instances set a reader."""

from __future__ import annotations

import ast
import importlib
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


def _non_test_sources() -> list[Path]:
    root = PACKAGE.parents[1]
    return sorted(p for d in ("src", "tools", "perfbench") for p in (root / d).rglob("*.py"))


def test_every_exported_name_has_a_caller():
    """Each name in ``__all__`` is referenced in ``src/``, ``tools/`` or
    ``perfbench/`` outside ``__init__.py`` and its own definition.  A reference
    inside the definition of another export that has no caller does not count,
    so a routine kept alive only by a test-only routine fails too."""
    exported = set(streamcert.__all__)
    owners_of: dict[str, list[frozenset]] = {name: [] for name in exported}

    def visit(node: ast.AST, owners: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported:
            owners |= {node.name}
        name = getattr(node, "id", None) or getattr(node, "attr", None)  # ast.Name, ast.Attribute
        if name in owners_of:
            owners_of[name].append(owners)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for path in _non_test_sources():
        if path != PACKAGE / "__init__.py":
            visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    dead: set[str] = set()
    while True:
        more = {name for name in exported - dead
                if all(owners & (dead | {name}) for owners in owners_of[name])}
        if not more:
            break
        dead |= more
    assert not dead, sorted(dead)


def test_every_public_method_has_a_caller():
    """Each public method or property of a class in ``src/streamcert/`` is read
    as an attribute in ``src/``, ``tools/`` or ``perfbench/`` outside a function
    of its own name.  Like the check on exports the match is by name alone, so
    any attribute of that name counts."""
    methods: set[tuple[str, str]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                methods |= {(node.name, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    read: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, ast.Attribute) and node.attr not in enclosing:
            read.add(node.attr)
        if isinstance(node, ast.FunctionDef):
            enclosing |= {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in _non_test_sources():
        visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    dead = sorted(f"{cls}.{name}" for cls, name in methods if name not in read)
    assert not dead, dead


def test_every_dataclass_field_has_a_reader():
    """Each annotated field of a ``@dataclass`` in ``src/streamcert/`` is read as
    an attribute in ``src/``, ``tools/`` or ``perfbench/``.  Like the method check
    the match is by name, so a field shares its readers with every attribute of
    that name: it could not flag ``CertValidationReport.kind`` and ``.k`` while
    ``cert.kind`` and ``cert.k`` were read, so those were removed by hand."""
    fields: set[tuple[str, str]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                fields |= {(node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    assert fields
    read = {node.attr for path in _non_test_sources()
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute)}
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in read)
    assert not unread, unread


def test_every_instance_attribute_has_a_reader():
    """Each attribute that a class in ``src/streamcert/`` assigns on ``self`` is
    read, by name, as an attribute in ``src/``, ``tools/`` or ``perfbench/``; a
    count that is only ever written holds nothing anyone uses.  Exception
    classes are exempt: their fields are error data for callers.  Like the
    checks above the match is by name, so an attribute shares its readers with
    every attribute of that name: it could not see ``_TreeNode.chains``,
    written on every prune and read only by tests, because ``ChainCover.chains``
    shares its name, so that one was removed by hand."""
    assigned: set[tuple[str, str]] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and not issubclass(
                    getattr(importlib.import_module(f"streamcert.{path.stem}"), node.name), BaseException):
                assigned |= {(node.name, target.attr) for target in ast.walk(node)
                             if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                             and isinstance(target.value, ast.Name) and target.value.id == "self"}
    assert assigned
    read = {node.attr for path in _non_test_sources()
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{cls}.{name}" for cls, name in assigned if name not in read)
    assert not unread, unread

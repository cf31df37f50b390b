"""The package's exports: every name a module exports or the package re-exports resolves."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "combident"

# the modules that declare __all__, found in their source
EXPORTING = sorted(path.stem for path in PACKAGE.glob("*.py") if "\n__all__ = " in path.read_text(encoding="utf-8"))


def test_the_exporting_modules():
    assert EXPORTING == ["dsl", "exact"]


@pytest.mark.parametrize("module", EXPORTING)
def test_every_name_in_all_resolves(module):
    namespace = importlib.import_module(f"combident.{module}")
    assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) > 40
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(f"combident.{module}"), name)
    ]
    assert missing == []

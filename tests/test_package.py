"""The package's public names."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import reflect_gkm

MODULES = ["reflect_gkm"] + [
    f"reflect_gkm.{info.name}" for info in pkgutil.iter_modules(reflect_gkm.__path__)
]


SOURCES = sorted(Path(reflect_gkm.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_has_no_assert_statements(path):
    # python -O strips assert, so a correctness guard raises a named
    # exception instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

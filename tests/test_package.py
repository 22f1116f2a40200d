"""The package's public names."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import reflect_gkm

MODULES = ["reflect_gkm"] + [
    f"reflect_gkm.{info.name}" for info in pkgutil.iter_modules(reflect_gkm.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

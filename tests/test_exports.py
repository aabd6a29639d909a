"""Every name a module exports resolves, so a move cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import jacobi_mimo

MODULES = [jacobi_mimo] + [
    importlib.import_module(f"jacobi_mimo.{info.name}") for info in pkgutil.iter_modules(jacobi_mimo.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_exports_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"

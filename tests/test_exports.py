"""Every name a module exports resolves, so a move cannot leave a stale export behind,
and the package reports the version it is built as."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import jacobi_mimo

MODULES = [jacobi_mimo] + [
    importlib.import_module(f"jacobi_mimo.{info.name}") for info in pkgutil.iter_modules(jacobi_mimo.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_exports_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1) == jacobi_mimo.__version__

"""Every exported name resolves: each module's ``__all__`` and the package's re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import collapselab

MODULES = sorted(info.name for info in pkgutil.iter_modules(collapselab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"collapselab.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(collapselab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"collapselab.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name} is not public"
            assert getattr(collapselab, alias.name) is getattr(module, alias.name)

"""Every name robloc exports resolves, so a renamed or deleted function
cannot stay behind in an ``__all__`` list or in the package's imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import robloc

MODULES = sorted(info.name for info in pkgutil.iter_modules(robloc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_resolves_once(name):
    module = importlib.import_module(f"robloc.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported))
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def test_every_public_name_the_package_imports_exists_in_its_module():
    tree = ast.parse(Path(robloc.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names if not alias.name.startswith("_")]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"robloc.{module_name}")
        assert hasattr(module, name), (module_name, name)
        assert name in getattr(module, "__all__", [name]), (module_name, name)
        assert getattr(robloc, name) is getattr(module, name)

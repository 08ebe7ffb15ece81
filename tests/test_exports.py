"""Package exports: each module's ``__all__`` and the package's re-exports agree."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import privsel

MODULES = sorted(info.name for info in pkgutil.iter_modules(privsel.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"privsel.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(privsel.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"privsel.{node.module}")
            if hasattr(module, "__all__"):
                unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                             if alias.name not in module.__all__]
    assert unlisted == []


def test_no_module_imports_private_names_of_mechanisms():
    # a fact about a mechanism is stated once, in mechanisms: other modules
    # call its public functions, which check their own arguments
    private = []
    for path in sorted(Path(privsel.__file__).parent.glob("*.py")):
        if path.stem == "mechanisms":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
                    (1, "mechanisms"), (0, "privsel.mechanisms")):
                private += [f"{path.stem}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []

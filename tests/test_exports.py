"""Every name a module exports through ``__all__`` exists in that module, and
no module imports a sibling's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import eegadapt

MODULES = [m.name for m in pkgutil.iter_modules(eegadapt.__path__)
           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"eegadapt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"eegadapt.{name}.__all__ names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_names_imported_from_siblings(name):
    # A module reaches a sibling only through names the sibling makes public;
    # dunder names such as __version__ are not private.
    source = Path(eegadapt.__file__).with_name(f"{name}.py").read_text()
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("eegadapt"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private, f"eegadapt.{name} imports {private}"

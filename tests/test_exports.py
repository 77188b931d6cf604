"""Every name a module exports through ``__all__`` exists in that module, no
module imports a sibling's private names, and only ``model`` runs threads."""

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


THREAD_MODULES = {"threading", "concurrent.futures", "ctypes"}


def imported_modules(name):
    source = Path(eegadapt.__file__).with_name(f"{name}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_only_model_imports_thread_and_ctypes_modules():
    # model.py alone decides how samples are split and where they run: the
    # pool and the BLAS thread setter live there and nowhere else.
    users = {name: sorted(imported_modules(name) & THREAD_MODULES)
             for name in MODULES}
    assert {name for name, found in users.items() if found} == {"model"}, users

"""Every name a module exports through ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import eegadapt

MODULES = [m.name for m in pkgutil.iter_modules(eegadapt.__path__)
           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"eegadapt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"eegadapt.{name}.__all__ names {missing}"

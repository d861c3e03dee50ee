"""Every name a module exports through __all__ exists."""

import importlib
import pkgutil

import pytest

import evokernel

MODULES = ["evokernel"] + [m.name for m in pkgutil.walk_packages(
    evokernel.__path__, "evokernel.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

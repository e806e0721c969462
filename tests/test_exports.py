"""Every exported name resolves: ``ddopt.__all__`` and the ``__all__`` of
each ``ddopt`` module name only what the module defines or imports."""

import importlib
import pkgutil

import pytest

import ddopt

MODULES = ["ddopt"] + sorted(
    "ddopt." + m.name for m in pkgutil.iter_modules(ddopt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing

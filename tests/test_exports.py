import importlib
import pkgutil

import pytest

import lrbench

MODULES = ["lrbench"] + [f"lrbench.{info.name}"
                         for info in pkgutil.iter_modules(lrbench.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert [name for name in exported if not hasattr(mod, name)] == []
    assert len(set(exported)) == len(exported)

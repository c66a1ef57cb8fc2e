import importlib
import pkgutil

import pytest

import tkgdiff

MODULES = sorted(m.name for m in pkgutil.iter_modules(tkgdiff.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"tkgdiff.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public), f"duplicates in tkgdiff.{name}.__all__"
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert not missing, f"tkgdiff.{name}.__all__ names undefined {missing}"

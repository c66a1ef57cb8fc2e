import importlib
import pkgutil
from pathlib import Path

import pytest

import tkgdiff

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
MODULES = sorted(m.name for m in pkgutil.iter_modules(tkgdiff.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"tkgdiff.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public), f"duplicates in tkgdiff.{name}.__all__"
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert not missing, f"tkgdiff.{name}.__all__ names undefined {missing}"


def test_every_console_script_resolves():
    # an installed script whose target is missing crashes on every run
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"script {name} -> {target} does not resolve"

"""Every name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import iwasawalab

MODULES = sorted(m.name for m in pkgutil.iter_modules(iwasawalab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"iwasawalab.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing

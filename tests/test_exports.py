import importlib
import pkgutil

import pytest

import lindiff

MODULES = sorted(m.name for m in pkgutil.iter_modules(lindiff.__path__, "lindiff."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names undefined attributes: {missing}"

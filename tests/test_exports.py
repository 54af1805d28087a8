import importlib
import inspect
import pkgutil
import subprocess
import sys

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


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_class_or_function_is_defined_in_its_module(name):
    module = importlib.import_module(name)
    objects = [(attr, getattr(module, attr)) for attr in getattr(module, "__all__", [])]
    foreign = [
        f"{attr} (from {obj.__module__})"
        for attr, obj in objects
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != name
    ]
    assert foreign == [], f"{name}.__all__ re-exports {foreign}; import them from their own modules"


def test_importing_the_package_loads_no_submodule():
    code = "import sys, lindiff; print(sorted(m for m in sys.modules if m.startswith('lindiff.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"

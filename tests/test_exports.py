import ast
import functools
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lindiff

MODULES = sorted(m.name for m in pkgutil.iter_modules(lindiff.__path__, "lindiff."))
SOURCES = sorted(Path(lindiff.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


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


@functools.cache
def _names_used(path: Path) -> frozenset:
    """Every name a file imports, reads or reads as an attribute; comments and docstrings do not count."""
    nodes = ast.walk(ast.parse(path.read_text()))
    return frozenset(
        getattr(node, "id", None) or getattr(node, "attr", None) or node.name
        for node in nodes
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    )


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_function_is_used_by_another_module_or_a_test(name):
    module = importlib.import_module(name)
    used = frozenset().union(*(_names_used(path) for path in SOURCES if path != Path(module.__file__)))
    functions = [attr for attr in getattr(module, "__all__", []) if inspect.isfunction(getattr(module, attr))]
    unused = [attr for attr in functions if attr not in used]
    assert unused == [], f"{name}.__all__ exports functions that no other src module or test uses: {unused}"


def test_importing_the_package_loads_no_submodule():
    code = "import sys, lindiff; print(sorted(m for m in sys.modules if m.startswith('lindiff.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"

"""Every name a module lists in __all__ exists, and no module imports a name
it does not use."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import iwasawalab

MODULES = sorted(m.name for m in pkgutil.iter_modules(iwasawalab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"iwasawalab.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing


def _unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module neither reads nor lists
    in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


def test_scan_flags_an_unused_import():
    source = "from fractions import Fraction\nimport math\n\nx = math.pi\n"
    assert _unused_imports(source) == ["Fraction (line 1)"]
    assert _unused_imports("from math import pi\n__all__ = ['pi']\n") == []


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_imports(name):
    path = Path(iwasawalab.__file__).parent / f"{name}.py"
    assert _unused_imports(path.read_text(encoding="utf-8")) == []

"""Every name a module lists in __all__ exists, no module imports a name it
does not use, every top-level function or class of the package is
referenced somewhere in the package, its tests or the benchmark, and the
definitions that only tests reference are a frozen list."""

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


REPO = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.Module, skip=frozenset()) -> set[str]:
    """Names read (as a name or an attribute) anywhere in the module, except
    a top-level definition's references to itself inside its own body and
    anything inside the top-level definitions named in skip."""
    used: set[str] = set()
    for top in tree.body:
        own = top.name if isinstance(top, DEFS) else None
        if own in skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                used.add(name)
    return used


def _unreferenced_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """module.name for each top-level function or class of the package
    sources that no source (package or other) references; __all__ entries
    are strings and do not count."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    used: set[str] = set()
    for tree in list(trees.values()) + [ast.parse(src) for src in others]:
        used |= _references(tree)
    return sorted(f"{mod}.{node.name}" for mod, tree in trees.items()
                  for node in tree.body if isinstance(node, DEFS) and node.name not in used)


def test_scan_flags_an_unreferenced_definition():
    package = {"m": ("__all__ = ['exported', 'used']\n"
                     "def used():\n    return 1\n"
                     "def exported():\n    return 2\n"
                     "def recursive(n):\n    return recursive(n - 1) if n else used()\n"
                     "class Unused:\n    def method(self):\n        return Unused()\n")}
    assert _unreferenced_definitions(package, []) == ["m.Unused", "m.exported", "m.recursive"]
    other = "import m\nm.exported()\nfrom m import recursive\nrecursive(3)\nm.Unused\n"
    assert _unreferenced_definitions(package, [other]) == []


def _test_only_definitions(package: dict[str, str], others: list[str],
                           tests: list[str]) -> list[str]:
    """module.name for each top-level function or class of the package that
    some source references and no other source (package or other) does,
    except from inside definitions already found to be test-only.  The scan
    repeats, leaving those bodies out, until it finds no more: a definition
    whose only library readers are test-only is test-only too."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    outside: set[str] = set()
    for src in others:
        outside |= _references(ast.parse(src))
    referenced = set(outside)
    for tree in list(trees.values()) + [ast.parse(src) for src in tests]:
        referenced |= _references(tree)
    found: set[tuple[str, str]] = set()
    while True:
        used = set(outside)
        for mod, tree in trees.items():
            used |= _references(tree, {name for m, name in found if m == mod})
        now = {(mod, node.name) for mod, tree in trees.items() for node in tree.body
               if isinstance(node, DEFS) and node.name in referenced - used}
        if now == found:
            return sorted(f"{mod}.{name}" for mod, name in found)
        found = now


def test_scan_flags_a_test_only_definition():
    package = {"m": ("def lib():\n    return 1\n"
                     "def checked():\n    return lib()\n"
                     "def dead():\n    return 3\n")}
    bench = "from m import lib\nlib()\n"
    test = "from m import checked, lib\nassert checked() == lib()\n"
    assert _test_only_definitions(package, [bench], [test]) == ["m.checked"]
    assert _test_only_definitions(package, [bench, "m.checked()\n"], [test]) == []


def test_scan_follows_readers_that_are_themselves_test_only():
    package = {"m": ("def lib():\n    return shared()\n"
                     "def shared():\n    return 1\n"
                     "def helper():\n    return 2\n"
                     "def inner():\n    return helper()\n"
                     "def checked():\n    return inner() + shared()\n")}
    bench = "from m import lib\nlib()\n"
    test = "from m import checked\nassert checked() == 3\n"
    # helper and inner are read only by checked, which only the tests read
    assert _test_only_definitions(package, [bench], [test]) == [
        "m.checked", "m.helper", "m.inner"]
    # negative control: a library reader outside that chain keeps helper
    # (and only helper) out of the list
    assert _test_only_definitions(package, [bench, "m.helper()\n"], [test]) == [
        "m.checked", "m.inner"]


def _package() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8")
            for p in Path(iwasawalab.__file__).parent.glob("*.py")}


def _sources(directory: str) -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted((REPO / directory).rglob("*.py"))]


def test_every_definition_is_referenced():
    assert _unreferenced_definitions(_package(), _sources("tests") + _sources("labbench")) == []


# The library names that only tests read.  A name leaves this list when the
# library or the benchmark comes to use it, or when it moves into the tests
# or is deleted; no new definition joins it.  The twist-unit pair joined when
# the twist identity, their one library caller, moved into the tests as a
# reference: they are the code that identity checks, and no suite runs it.
# ThetaRecord and TwistUnitData, the data that pair reads, joined when the
# scan became transitive.  The four are the twist-unit block of ROADMAP
# Direction 5: they leave together, when a suite reaches the twist unit or
# the block moves into the tests.
TEST_ONLY = [
    "epsilon.inductivity_split",
    "grpring.Tower",
    "reps.inner_product",
    "reps.inner_product_with_char",
    "symratio.ThetaRecord",
    "symratio.TwistUnitData",
    "symratio.build_twist_unit",
    "symratio.twist_unit_evaluation",
]


def test_test_only_definitions_are_frozen():
    assert _test_only_definitions(_package(), _sources("labbench"), _sources("tests")) == TEST_ONLY

"""The package surface: numpy stays the only runtime dependency, and every export resolves.

The package imports nothing outside the standard library but numpy, each
module uses every name it imports, each function the package defines is
named somewhere in the package or in perfbench, and each name in
``liquid_ssm.__all__`` is listed once and bound on the package.
"""

import ast
import sys
from pathlib import Path

import liquid_ssm

SRC = Path(__file__).resolve().parents[1] / "src" / "liquid_ssm"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = {path.name: sorted(absolute_imports(path) - ALLOWED) for path in sources}
    assert not {name: mods for name, mods in outside.items() if mods}
    assert "numpy" in set().union(*map(absolute_imports, sources))


def unused_imports(path: Path) -> list[str]:
    """Names one source file binds by import but never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_import_is_used():
    # a deletion that leaves an import behind fails here; __init__ imports to re-export
    sources = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert sources
    unused = {path.name: unused_imports(path) for path in sources}
    assert not {name: names for name, names in unused.items() if names}


def test_every_export_resolves_once():
    names = liquid_ssm.__all__
    assert len(names) == len(set(names))
    assert not [name for name in names if not hasattr(liquid_ssm, name)]


PERFBENCH = SRC.parents[1] / "perfbench"
TEST_ONLY = {"_pb_taps_discrete"}  # an oracle that only the tests call


def names_read(path: Path) -> set[str]:
    """Every name one source file reads: as a name, as an attribute or as an imported name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_function_is_reached():
    # a deletion that leaves a function without callers fails here; the CLI looks up its handlers
    # cmd_* by name, and Python calls the dunder methods
    sources = sorted(SRC.glob("*.py"))
    reached = set().union(*map(names_read, sources + sorted(PERFBENCH.glob("*.py"))))
    defined = {
        node.name
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
    }
    exempt = {name for name in defined if name.startswith("cmd_") or (name[:2] == name[-2:] == "__")}
    unreached = defined - reached - exempt - TEST_ONLY
    assert not unreached

"""The package surface: numpy stays the only runtime dependency, and every export resolves.

The package imports nothing outside the standard library but numpy, each
module uses every name it imports, and each name in ``liquid_ssm.__all__`` is
listed once and bound on the package.
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

"""The package surface: numpy stays the only runtime dependency, and every export resolves.

The package imports nothing outside the standard library but numpy, and each
name in ``liquid_ssm.__all__`` is listed once and bound on the package.
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


def test_every_export_resolves_once():
    names = liquid_ssm.__all__
    assert len(names) == len(set(names))
    assert not [name for name in names if not hasattr(liquid_ssm, name)]

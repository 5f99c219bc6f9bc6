"""numpy stays the only runtime dependency: the package imports nothing else outside the standard library."""

import ast
import sys
from pathlib import Path

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

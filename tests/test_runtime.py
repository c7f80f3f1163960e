"""The package runs on the standard library and NumPy alone."""

import ast
import sys
from pathlib import Path

import hamfactor

ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "hamfactor"}


def import_roots(path: Path) -> set[str]:
    """Top-level package of every import in one module; relative imports count as hamfactor."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("hamfactor" if node.level else node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(Path(hamfactor.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    foreign = {path.name: sorted(import_roots(path) - ALLOWED_ROOTS) for path in modules}
    assert {name: roots for name, roots in foreign.items() if roots} == {}

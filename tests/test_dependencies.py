"""The package's runtime dependencies: numpy and the standard library only."""

import ast
import sys
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fedoms"
_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fedoms"}


def _imported_roots(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_the_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(_PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    outside = {path.name: sorted(_imported_roots(path) - _ALLOWED) for path in modules}
    assert {name: roots for name, roots in outside.items() if roots} == {}

"""The declared runtime dependencies are exactly what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "avbinder"
_IMPORT_ERRORS = {"ImportError", "ModuleNotFoundError"}


def _canonical(name: str) -> str:
    return re.sub(r"[-_.]+", "_", name).lower()


def _catches_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        caught = handler.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if any(isinstance(n, ast.Name) and n.id in _IMPORT_ERRORS for n in names):
            return True
    return False


def _required_imports(tree: ast.AST) -> set[str]:
    """Top-level modules imported outside any try that catches ImportError."""
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Try) and _catches_import_error(node):
            return  # an optional import, not a requirement
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_dependencies_match_third_party_imports():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared_names = {_canonical(re.match(r"[A-Za-z0-9._-]+", d).group()) for d in declared}

    imported: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        imported |= _required_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    third_party = {
        _canonical(m) for m in imported if m not in sys.stdlib_module_names and m != PACKAGE.name
    }
    assert declared_names == third_party

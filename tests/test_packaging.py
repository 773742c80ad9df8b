"""The declared runtime dependencies are exactly what the package imports,
and the package uses every name it imports."""

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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, except an alias whose own
    line carries ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


def test_unused_import_scan_sees_leftovers():
    source = "from x import (\n    a,\n    b,  # noqa: F401\n    c,\n)\nimport d.e\nimport f\n\nf(a)\n"
    assert _unused_imports(source) == ["c", "d"]


def test_package_has_no_unused_imports():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.rglob("*.py"))
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}

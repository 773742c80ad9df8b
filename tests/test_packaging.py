"""The declared runtime dependencies are exactly what the package imports,
the package uses every name it imports, every public function or class
has a user outside the tests, and files are read in one place."""

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


def _public_definitions(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names read, attributes taken, and strings (``tracer.wrap`` targets)."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _unreferenced_public(package: list[str], users: list[str], entry_points: set[str]) -> list[str]:
    """Public top-level names of the ``package`` sources that no package or
    ``users`` source refers to and no entry point names."""
    package_trees = [ast.parse(source) for source in package]
    defined = set().union(*map(_public_definitions, package_trees))
    referenced = set(entry_points).union(*map(_referenced_names, package_trees + [ast.parse(s) for s in users]))
    return sorted(defined - referenced)


def test_unreferenced_public_scan_sees_leftovers():
    package = ["def used():\n    pass\n\n\ndef left():\n    pass\n\n\nclass Kept:\n    pass\n",
               "from m import used\n\n\ndef main():\n    used()\n"]
    users = ["tracer.wrap(av.m, 'Kept')\n"]
    assert _unreferenced_public(package, users, {"main"}) == ["left"]


def test_every_public_name_has_a_user_outside_the_tests():
    # a public name that only tests call is API no pipeline uses
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    entry_points = {target.rsplit(":", 1)[1] for target in scripts.values()}
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))]
    users = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert _unreferenced_public(package, users, entry_points) == []


_RAW_READS = {"frombuffer", "fromfile", "readinto", "read_bytes"}
# the one bounded binary reader; TSV is read line by line from the open file
_READERS = {("embedio.py", "BinaryReader")}


def _raw_reads(source: str) -> set[str]:
    """Top-level functions and classes (``<module>`` for other statements)
    that name one of ``_RAW_READS``."""
    found = set()
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for sub in ast.walk(node):
            name = sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", None)
            if name in _RAW_READS:
                found.add(owner)
    return found


def test_raw_read_scan_sees_leftovers():
    source = "\n".join([
        "import numpy as np",
        "class Reader:",
        "    def get(self, b):",
        "        return self.fh.readinto(b)",
        "def load(p):",
        "    return np.frombuffer(p.read_bytes())",
        "def write(p):",
        "    p.write_bytes(b'')",
        "blob = open('x', 'rb').read_bytes()",
    ])
    assert _raw_reads(source) == {"Reader", "load", "<module>"}


def test_files_are_read_only_through_the_bounded_reader():
    # a hand-rolled reader elsewhere skips the length checks done before allocating
    found = {
        (path.name, owner)
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner in _raw_reads(path.read_text(encoding="utf-8"))
    }
    assert found <= _READERS, found - _READERS

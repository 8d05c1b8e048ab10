"""No module in src/ or tests/ imports a name it never uses.

The scan is a plain AST walk (standard library only): a name bound by an
import counts as used when the module reads it anywhere, or lists it in
`__all__`. Package `__init__.py` files are skipped, since their imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import in the module -> line of the import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set:
    """Every name the module reads, plus the strings listed in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used)


def test_the_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport numpy.linalg\n"
              "from math import pi, tau\nfrom json import dumps\n"
              "__all__ = ['dumps']\n"
              "def f():\n    import sys\n    return numpy.linalg.norm(pi)\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "tau"), (9, "sys")]


def test_the_scan_covers_both_trees():
    names = {p.relative_to(ROOT).parts[0] for p in FILES}
    assert names == {"src", "tests"}
    assert ROOT / "src" / "airylink" / "propagation.py" in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

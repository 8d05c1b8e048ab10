"""No module in src/ imports a private (underscore) name from another
airylink module.

A helper that a second module needs is part of the package's interface and
gets a public name; one that only its own module uses stays private. The
scan is a plain AST walk (standard library only) over every `from ...
import ...` whose source is the package: a relative import or one from
`airylink`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "airylink").rglob("*.py"))


def private_imports(source: str) -> list:
    """(line, module, name) of every underscore name imported from the
    package, in the order they appear."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "airylink":
            continue
        found += [(node.lineno, "." * node.level + module, alias.name)
                  for alias in node.names if alias.name.startswith("_")]
    return sorted(found)


def test_the_scan_finds_private_imports():
    source = ("from __future__ import annotations\n"
              "from numpy import _globals\n"
              "from .beams import _user_beam, build_codebook\n"
              "from airylink.channels import _channel_builder\n"
              "from . import _private\n"
              "def f():\n    from .optimizer import _CHUNK\n"
              "from .errors import AirylinkError\n")
    assert private_imports(source) == [(3, ".beams", "_user_beam"),
                                       (4, "airylink.channels", "_channel_builder"),
                                       (5, ".", "_private"),
                                       (7, ".optimizer", "_CHUNK")]


def test_the_scan_covers_the_package():
    assert ROOT / "src" / "airylink" / "experiments.py" in SOURCES
    assert ROOT / "src" / "airylink" / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []

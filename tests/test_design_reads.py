"""Only beams.py and cli.py read beams.DESIGNS in src/.

DESIGNS holds the numbers of the curved codebook strategies. build_codebook
turns a strategy name into beams, and the CLI offers the names as its
--strategy choices; every other module asks build_codebook for the beams,
so no second copy of a design (a constant unpacked from DESIGNS, a beam
rebuilt from its numbers) can drift from the codebook's. The scan is a
plain AST walk (standard library only): an import of the name, a load of
the bare name and an attribute read `<anything>.DESIGNS` all count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "airylink").rglob("*.py"))
READERS = {"beams.py", "cli.py"}


def design_reads(source: str) -> list:
    """Line of every read of DESIGNS, in the order they appear."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [node.lineno for alias in node.names if alias.name == "DESIGNS"]
        elif isinstance(node, ast.Name) and node.id == "DESIGNS":
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "DESIGNS":
            found.append(node.lineno)
    return sorted(found)


def test_the_scan_finds_design_reads():
    source = ('"""DESIGNS in a docstring is no read."""\n'
              "from .beams import DESIGNS, build_codebook\n"
              "GEO = DESIGNS['airy_geo']\n"
              "import airylink.beams as beams\n"
              "OPT = beams.DESIGNS['airy_opt']\n"
              "def f():\n    return build_codebook\n")
    assert design_reads(source) == [2, 3, 5]


def test_the_scan_covers_the_package():
    names = {path.name for path in SOURCES}
    assert READERS <= names and "optimizer.py" in names


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in READERS],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_design_reads_outside_beams_and_cli(path):
    assert design_reads(path.read_text(encoding="utf-8")) == []

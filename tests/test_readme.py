"""The README's code blocks run: its scenario file parses and its library
example runs from the repository root."""

import re
from pathlib import Path

import pytest

from airylink import parse_scenario_text

ROOT = Path(__file__).resolve().parent.parent


def readme_blocks(language: str) -> list:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_scenario_file_parses():
    (block,) = readme_blocks("ini")
    scenario = parse_scenario_text(block)
    assert scenario.k == 2
    assert scenario.obstacle is not None


def test_library_example_runs(monkeypatch, capsys):
    (block,) = readme_blocks("python")
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
    (line,) = capsys.readouterr().out.splitlines()
    # The common SINR in dB of the shadow scenario's airy_geo codebook, as
    # the LAPACK-inverse RZF printed it; the closed form may move it by
    # round-off only.
    assert float(line) == pytest.approx(-18.419500264489322, rel=1e-10)

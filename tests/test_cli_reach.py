"""Every public function and method in src/airylink is one the CLI runs,
and every flag a command accepts is one it reads.

The private-import, dead-private-helper and unused-import scans cannot see
dead public code: a public function that only the tests call still looks
used. This test runs each CLI command once on the bundled configs (the
field maps over a short depth range that reaches past the obstacle plane)
under sys.setprofile and records every Python function called. A public
def (a name without a leading underscore, or a dunder) at module level or
in a module-level class that no command calls fails it, unless ALLOWED
names it with its reason. Test-only references belong under tests/.

The same commands run again on parsed namespaces that record each
attribute the command reads: a flag that parses but is never read is
accepted and ignored, so every parsed dest but the subcommand's name must
be read.
"""

import argparse
import ast
import sys
from pathlib import Path

from airylink.cli import _parser, main

from test_cli import BASELINE, MIXED, SHADOW

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "airylink"
SOURCES = sorted(PACKAGE.rglob("*.py"))

ALLOWED = {
    "errors.py:SingularChannelError.__init__":
        "runs on an error path only: a singular channel at epsilon = 0, or a zero precoder",
    "optimizer.py:SearchTrace.__eq__":
        "tests compare SearchOutcomes, and a dataclass field comparison on ndarray "
        "columns raises 'truth value is ambiguous'",
}

SHORT_DEPTHS = ["--zmin", "140", "--zmax", "160", "--zstep", "10"]


def commands(out: Path) -> list:
    """argv of each CLI command, once, on the bundled configs."""
    runs = [
        ["baseline", "--config", BASELINE],
        ["shadow", "--config", SHADOW],
        ["robustness", "--config", MIXED],
        ["mixed-opt", "--config", MIXED],
        *(["fieldmap", "--config", SHADOW, "--strategy", s, *SHORT_DEPTHS]
          for s in ("trad_all", "airy_geo", "airy_opt")),
        ["fieldmap", "--config", MIXED, "--strategy", "airy_geo", "--scenario", "free",
         "--beam", "1", *SHORT_DEPTHS],
    ]
    runs = [argv + ["--out", str(out / str(i))] for i, argv in enumerate(runs)]
    return runs + [["validate", "--config", MIXED]]


def is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def public_defs(source: str) -> list:
    """Qualified name of every public def at module level and in a public
    module-level class, in the order they appear."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_public(node.name):
            found.append(node.name)
        elif isinstance(node, ast.ClassDef) and is_public(node.name):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and is_public(item.name)]
    return found


def reached(argvs: list) -> set:
    """'file:qualname' of every function in src/airylink that the commands
    call."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(argvs)
    return {f"{Path(filename).name}:{name}" for filename, name in calls
            if Path(filename).resolve().parent == PACKAGE}


def test_the_scan_lists_public_defs():
    source = ("def run(): pass\n"
              "def _helper(): pass\n"
              "class Box:\n"
              "    size = 1\n"
              "    def __init__(self): pass\n"
              "    def fill(self): pass\n"
              "    def _spill(self): pass\n"
              "class _Hidden:\n"
              "    def show(self): pass\n"
              "def outer():\n"
              "    def inner(): pass\n")
    assert public_defs(source) == ["run", "Box.__init__", "Box.fill", "outer"]


def test_every_public_def_is_reached_by_the_cli(tmp_path, capsys):
    defined = {f"{path.name}:{name}" for path in SOURCES
               for name in public_defs(path.read_text(encoding="utf-8"))}
    assert set(ALLOWED) <= defined, "ALLOWED names a def that is gone"
    unreached = sorted(defined - reached(commands(tmp_path)) - set(ALLOWED))
    assert unreached == [], "public defs that no CLI command calls"


def unread_dests(argv: list) -> set:
    """The dests that parsing argv sets and its command never reads, the
    subparser's `command` dest aside."""
    args = _parser().parse_args(argv)
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    recorded = Recording(**vars(args))
    assert recorded.fn(recorded) == 0
    return set(vars(args)) - read - {"command"}


def test_every_parsed_flag_is_read(tmp_path, capsys):
    unread = [(argv[0], sorted(dests)) for argv in commands(tmp_path)
              if (dests := unread_dests(argv))]
    assert unread == [], "flags that a command accepts and ignores"

"""Every private function, class or module-level constant in src/airylink
is named somewhere.

A private (underscore) function, class or module-level name bound by
assignment is not part of the package's interface, so when no code in
src/ names it outside its own definition, nothing can read it and it is
dead. The scan is a plain AST walk (standard library only): a definition
counts as used when any module in src/ reads its name, as a plain name or
as an attribute, or imports it. The `def` or `class` statement, or the
assignment, that binds the name does not count.
"""

import ast
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def bound_names(target: ast.expr) -> list:
    """The plain names an assignment target binds, tuple targets included."""
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for element in target.elts for name in bound_names(element)]
    if isinstance(target, ast.Starred):
        return bound_names(target.value)
    return []


def private_definitions(tree: ast.Module) -> list:
    """(line, name) of every private function or class, at any depth, and
    of every private module-level name bound by assignment."""
    found = [(node.lineno, node.name) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and is_private(node.name)]
    targets = chain.from_iterable(node.targets if isinstance(node, ast.Assign) else [node.target]
                                  for node in tree.body
                                  if isinstance(node, (ast.Assign, ast.AnnAssign)))
    found += [(name.lineno, name.id) for target in targets for name in bound_names(target)
              if is_private(name.id)]
    return found


def named(tree: ast.Module) -> set:
    """Every name the module reads or imports. Binding a plain name does
    not read it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def dead_private_helpers(sources: dict) -> list:
    """(module, line, name) of every private definition that no module of
    `sources` ({module: source text}) names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*(named(tree) for tree in trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in private_definitions(tree) if name not in used)


def test_the_scan_finds_dead_helpers():
    sources = {
        "a": ("class _Kept:\n    def _method(self):\n        return 1\n"
              "    def __repr__(self):\n        return ''\n"
              "def _dead():\n    return _Kept()._method()\n"
              "def _only_decorates(f):\n    return f\n"
              "@_only_decorates\ndef public():\n    def _nested():\n        pass\n"),
        "b": ("from a import _imported\n"
              "class _Orphan:\n    pass\n"),
        "c": "def _imported():\n    pass\n",
    }
    assert dead_private_helpers(sources) == [("a", 6, "_dead"), ("a", 12, "_nested"),
                                             ("b", 2, "_Orphan")]


def test_the_scan_finds_dead_constants():
    sources = {
        "a": ("_READ = 1\n_DEAD = 2\n"
              "(_PAIR, [_LIST, *_REST]) = 3, [4, 5, 6]\n"
              "_ANNOTATED: int = _READ\n"
              "_REBOUND = 7\n_REBOUND = 8\n"
              "_GROWN = [1]\n_GROWN = _GROWN + [2]\n"
              "def f():\n    _local = _PAIR\n    return _local, _LIST\n"
              "_X = _Y = 9\n"),
        "b": "import a\nprint(a._REST, a._X)\n",
    }
    assert dead_private_helpers(sources) == [("a", 2, "_DEAD"), ("a", 4, "_ANNOTATED"),
                                             ("a", 5, "_REBOUND"), ("a", 6, "_REBOUND"),
                                             ("a", 12, "_Y")]


def test_the_scan_covers_the_package():
    assert ROOT / "src" / "airylink" / "experiments.py" in SOURCES
    assert ROOT / "src" / "airylink" / "channels.py" in SOURCES


def test_no_dead_private_helpers():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert dead_private_helpers(sources) == []

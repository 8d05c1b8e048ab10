"""Every parameter of every function and lambda in src/airylink is read.

A parameter that its function's body never reads carries nothing: every
caller passes a value that changes no result, and a reader takes it for a
knob. The scan is a plain AST walk (standard library only): a parameter
counts as read when the function's body, nested functions and lambdas
included, loads its name. Binding the name again, or naming it in the
function's own defaults or annotations, does not count. `self` and `cls`
are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "airylink").rglob("*.py"))
EXEMPT = {"self", "cls"}


def parameters(node) -> list:
    """Every parameter of a function or lambda: positional, keyword-only
    and the * and ** catch-alls."""
    args = node.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    return [a for a in named + [args.vararg, args.kwarg] if a is not None]


def loaded(body) -> set:
    """Every plain name that the statements or expression `body` reads."""
    roots = body if isinstance(body, list) else [body]
    return {node.id for root in roots for node in ast.walk(root)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def dead_parameters(source: str) -> list:
    """(line, function, parameter) of every parameter its body never reads;
    a lambda's function name is "<lambda>"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            read = loaded(node.body)
            name = getattr(node, "name", "<lambda>")
            found += [(node.lineno, name, a.arg) for a in parameters(node)
                      if a.arg not in EXEMPT and a.arg not in read]
    return sorted(found)


def test_the_scan_finds_dead_parameters():
    source = ("def f(a, b, /, c, *args, d, e=1, **kw):\n    return a + c + d + args[0]\n"
              "class K:\n"
              "    def m(self, x):\n        return 0\n"
              "    @classmethod\n    def n(cls, y):\n        return y\n"
              "def outer(p, q, r=None, s: 'q' = None):\n"
              "    def inner():\n        return p\n"
              "    q = 2\n"
              "    return inner, (lambda t, u: t)\n"
              "g = lambda v, w: v\n")
    assert dead_parameters(source) == [
        (1, "f", "b"), (1, "f", "e"), (1, "f", "kw"),
        (4, "m", "x"),
        (9, "outer", "q"), (9, "outer", "r"), (9, "outer", "s"),
        (13, "<lambda>", "u"),
        (14, "<lambda>", "w"),
    ]


def test_the_scan_covers_the_package():
    assert ROOT / "src" / "airylink" / "channels.py" in SOURCES
    assert ROOT / "src" / "airylink" / "optimizer.py" in SOURCES


def test_no_dead_parameters():
    found = {str(p.relative_to(ROOT)): dead_parameters(p.read_text()) for p in SOURCES}
    assert {path: dead for path, dead in found.items() if dead} == {}

"""Pins on the shape of the package source: how many parameters have a
default, and that no memo table is unbounded.  A change that adds an option
raises MAX_DEFAULTED_PARAMETERS in its own diff."""

import ast
from pathlib import Path

import torus_tails

MAX_DEFAULTED_PARAMETERS = 26


def _nodes():
    for path in sorted(Path(torus_tails.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_defaulted_parameter_count():
    count = sum(len(node.args.defaults)
                + sum(d is not None for d in node.args.kw_defaults)
                for _, node in _nodes()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)))
    assert count <= MAX_DEFAULTED_PARAMETERS


def _callee_name(func) -> str:
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", "")


def test_no_unbounded_memo_table():
    unbounded = []
    for name, node in _nodes():
        if any(_callee_name(d) == "cache"
               for d in getattr(node, "decorator_list", ())):
            unbounded.append((name, node.lineno, "cache"))
        if not (isinstance(node, ast.Call)
                and _callee_name(node.func) == "lru_cache"):
            continue
        sizes = node.args[:1] + [k.value for k in node.keywords
                                 if k.arg == "maxsize"]
        if any(isinstance(s, ast.Constant) and s.value is None
               for s in sizes):
            unbounded.append((name, node.lineno, "lru_cache(maxsize=None)"))
    assert unbounded == []

"""Pins on the shape of the package source: how many parameters have a
default, that no memo table is unbounded, and that every public name is
used by the package itself.  A change that adds an option raises
MAX_DEFAULTED_PARAMETERS in its own diff; a helper only the tests call
lives under tests/."""

import ast
from pathlib import Path
from types import ModuleType

import torus_tails

MAX_DEFAULTED_PARAMETERS = 22

# public names that no other package code uses, each with why it stays
UNREACHED_ALLOWED = {
    "weight_mult": "the Kostant weight-multiplicity oracle of the north star",
    "weight_mult_freudenthal": "Freudenthal's recursion, its independent "
                               "oracle",
}


def _trees():
    for path in sorted(Path(torus_tails.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def _nodes():
    for name, tree in _trees():
        for node in ast.walk(tree):
            yield name, node


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


def _used_outside(tree: ast.AST, name: str) -> bool:
    """name is read in tree as a name or an attribute, outside the body of
    its own definition (docstrings and imports are not reads)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name or \
                isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_public_name_is_reached():
    trees = [tree for name, tree in _trees() if name != "__init__.py"]
    public = [name for name in torus_tails.__all__
              if not isinstance(getattr(torus_tails, name), ModuleType)]
    unreached = {name for name in public
                 if not any(_used_outside(tree, name) for tree in trees)}
    assert unreached == set(UNREACHED_ALLOWED)

"""Pins on the shape of the package source: how many parameters have a
default, that no memo table is unbounded, that every public name (exported,
or a module-level function or class of any module) and every method of a
public class is used by the package itself, and that the package's modules
import each other without a cycle.  A change that adds an
option raises MAX_DEFAULTED_PARAMETERS in its own diff; a helper only the
tests call lives under tests/."""

import ast
from pathlib import Path
from types import ModuleType

import torus_tails

MAX_DEFAULTED_PARAMETERS = 13

# public names that no other package code uses, each with why it stays
UNREACHED_ALLOWED = {
    "weight_mult": "the Kostant weight-multiplicity oracle of the north star",
    "weight_mult_freudenthal": "Freudenthal's recursion, its independent "
                               "oracle",
    "g2_zero_weight_mult": "the paper's G2 closed form: it reproduces a "
                           "published formula and pins an erratum",
    "g2_plethysm_zero_a3": "the paper's G2 closed form at a = 3: it "
                           "reproduces a published formula",
}

# methods and properties of public classes that no package code reads
METHODS_UNREACHED_ALLOWED = {
    "TailSeries.partial_sum": "the tail verifier of the roadmap needs it",
    "TailSeries.from_json_obj": "the tail JSON reader, kept so that tails "
                                "round-trip",
    "TruncatedSeries.terms": "the benchmark reads it",
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


# the Kostant sum and its per-lambda table, read by mult alone
KOSTANT_INTERNALS = {"_kostant_sum", "_kostant_tops"}


def test_kostant_internals_stay_in_mult():
    # every other module reads weight and plethysm multiplicities through
    # mult's functions, the row scatter of the summation set and the jets
    # included, so there is one Kostant evaluation to change
    readers = {(name, node.lineno)
               for name, node in _nodes() if name != "mult.py" and (
                   isinstance(node, ast.alias)
                   and node.name in KOSTANT_INTERNALS
                   or isinstance(node, ast.Name)
                   and node.id in KOSTANT_INTERNALS
                   or isinstance(node, ast.Attribute)
                   and node.attr in KOSTANT_INTERNALS)}
    assert readers == set()


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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _used_outside(tree: ast.AST, name: str, own, attribute_only: bool
                  ) -> bool:
    """name is read in tree as an attribute (or, unless attribute_only, as a
    name), outside the definitions ``own`` accepts (docstrings and imports
    are not reads).  An attribute of ``args``, the CLI's argparse namespace,
    is an option, not a member of a package class."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if own(node):
            continue
        if isinstance(node, ast.Name) and node.id == name and \
                not attribute_only or \
                isinstance(node, ast.Attribute) and node.attr == name and \
                not (isinstance(node.value, ast.Name)
                     and node.value.id == "args"):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _defines(name: str):
    return lambda node: isinstance(node, _DEFS) and node.name == name


def test_every_public_name_is_reached():
    # the exported names and every public module-level def and class, so
    # that a helper only the tests call is not left in the package
    trees = [tree for name, tree in _trees() if name != "__init__.py"]
    public = {name for name in torus_tails.__all__
              if not isinstance(getattr(torus_tails, name), ModuleType)}
    public |= {node.name for tree in trees for node in tree.body
               if isinstance(node, _DEFS) and not node.name.startswith("_")}
    unreached = {name for name in public
                 if not any(_used_outside(tree, name, _defines(name), False)
                            for tree in trees)}
    assert unreached == set(UNREACHED_ALLOWED)


def test_every_public_method_is_reached():
    # a method is reached when its name is read as an attribute outside its
    # own body; dunder methods run by syntax (construction, operators,
    # hashing), so they are not pinned
    trees = [tree for _, tree in _trees()]
    public = set(torus_tails.__all__)
    unreached = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name in public):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("__") and \
                        not any(_used_outside(t, item.name,
                                              lambda node: node is item, True)
                                for t in trees):
                    unreached.add(f"{cls.name}.{item.name}")
    assert unreached == set(METHODS_UNREACHED_ALLOWED)


def _package_imports() -> dict[str, set[str]]:
    """module -> the package modules it imports, at module level and inside
    functions; ``from . import name`` reads the module name if there is
    one, else the package's ``__init__``."""
    modules = {name[:-3] for name, _ in _trees()}
    graph = {}
    for name, tree in _trees():
        targets = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if node.module is not None:
                targets.add(node.module.split(".")[0])
            else:
                targets.update(a.name if a.name in modules else "__init__"
                               for a in node.names)
        graph[name[:-3]] = targets
    return graph


def test_package_imports_are_acyclic():
    graph = _package_imports()
    done, path = set(), []

    def cycle_from(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for target in sorted(graph.get(module, ())):
            found = cycle_from(target)
            if found:
                return found
        path.pop()
        done.add(module)
        return None

    assert next(filter(None, map(cycle_from, sorted(graph))), None) is None


# A1 runs as A1 x A1 through the rank-2 code: no rank-1 branch and no
# padding of a one-coordinate weight is left in the package
RANK1_FRAGMENTS = ("rank == 1", "rank != 2", "(0,) * off", "[-rs.rank:]")


def test_no_rank1_code():
    found = [(path.name, lineno, frag)
             for path in sorted(Path(torus_tails.__file__).parent.glob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             for frag in RANK1_FRAGMENTS if frag in line]
    assert found == []

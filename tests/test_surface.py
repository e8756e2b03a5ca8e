"""The package's surface is what the command line, the benchmark and
`rwcert.__all__` reach.

Every top-level function, class and constant of `src/rwcert`, and every
method and property of its classes, public or private (dunder names aside),
must be referenced from outside its own definition: by code in the package,
by code or a string constant in `bench/*.py` (the TRACED table names
functions by string), or by `rwcert.__all__`.  A method is reached by any
attribute of its name, as a grep would find it.  Docstrings and imports do
not count, and neither do the tests, so a reference implementation or a
`_helper` that only the tests call belongs in tests/oracles.py, and one that
nothing calls is dead.
"""

import ast
from collections import Counter
from pathlib import Path

import rwcert

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwcert"
BENCH = ROOT / "bench"


def _docstrings(tree: ast.AST) -> set:
    """The ids of the docstring constants of a module and its defs."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _references(node: ast.AST, strings: bool, skip=frozenset()) -> Counter:
    """How often each name is read, each attribute taken and, with `strings`,
    each string constant other than those whose ids are in `skip` appears,
    anywhere under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif (strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in skip):
            found[sub.value] += 1
    return found


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined(statement: ast.stmt) -> list:
    """The names other than dunders that a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if not _dunder(name)]


def _definitions(tree: ast.Module):
    """(name, node) of each definition of a module that the rule covers: its
    top-level statements' names and its classes' methods and properties."""
    for statement in tree.body:
        for name in _defined(statement):
            yield name, statement
        if isinstance(statement, ast.ClassDef):
            for member in statement.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _dunder(member.name)):
                    yield member.name, member


def _unreferenced(package: Path, bench: Path, exported) -> list:
    """(module, name) of each definition in package/*.py that nothing outside
    it reaches."""
    reached = set(exported)
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        reached.update(_references(tree, strings=True, skip=_docstrings(tree)))
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_references(tree, strings=False))
    return [(module, name) for module, tree in trees.items()
            for name, node in _definitions(tree)
            if name not in reached
            and everywhere[name] == _references(node, strings=False)[name]]


def test_every_public_definition_is_reached():
    assert _unreferenced(PACKAGE, BENCH, rwcert.__all__) == []


def test_the_check_sees_a_definition_only_its_own_body_reads(tmp_path):
    """A recursive function that nothing else calls is still unreferenced,
    and a bench docstring that names it does not reach it; a private helper,
    a method and a property are held to the same rule (a sibling method's
    call reaches one, its own body does not), and a dunder is not."""
    package, bench = tmp_path / "src" / "rwcert", tmp_path / "bench"
    package.mkdir(parents=True)
    bench.mkdir()
    (package / "mod.py").write_text(
        "__version__ = '0'\n_LIMIT = 3\n\n\n"
        "def used(n):\n    return n < _LIMIT\n\n\n"
        "def _left_over(n):\n    return n\n\n\n"
        "def walk(n):\n    return walk(n - 1) if used(n) else Box(n).grow()\n\n\n"
        "class Box:\n    def __init__(self, n):\n        self.n = n\n\n"
        "    @property\n    def size(self):\n        return self.n\n\n"
        "    def grow(self):\n        return self.size + 1\n\n"
        "    def _spare(self):\n        return self._spare()\n")
    (bench / "spans.py").write_text('"""walk"""\nTRACED = (("rwcert.mod", "used", "used"),)\n')
    assert _unreferenced(package, bench, []) == [("mod", "_left_over"), ("mod", "walk"),
                                                 ("mod", "_spare")]
    assert _unreferenced(package, bench, ["walk"]) == [("mod", "_left_over"), ("mod", "_spare")]

import ast
import collections
import pathlib

import latmod

PACKAGE = pathlib.Path(latmod.__file__).parent

# public names the library does not call yet, each kept for a named use
UNCALLED_ALLOWED: dict[str, str] = {}


def assert_statements(root: pathlib.Path) -> list[str]:
    """file:line of every assert statement in the .py files under root."""
    return [f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)]


def _used_names(nodes, kinds=(ast.Name, ast.Attribute)) -> collections.Counter:
    """How often each name is read (ast.Load: an assignment or a del is no
    read), as a bare name or an attribute; kinds=(ast.Attribute,) counts
    attribute reads only."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in nodes if isinstance(n, kinds) and isinstance(n.ctx, ast.Load))


def uncalled_names(root: pathlib.Path) -> list[str]:
    """file:name of every module-level function, public or private (but not
    a dunder), and every public class, and file:Class.name of every public
    method and property of a public class, in the .py files under root,
    whose name is read nowhere under root outside its own definition (for a
    method: outside its class).

    A function or class counts as used when its name is read bare or as an
    attribute; a method or property only when read as an attribute, since
    a bare name cannot reach it.  Names are still matched without types,
    so a method that shares its name with another attribute that is read
    escapes the guard; `BiIdeal.pairs` (beside `_CoverIndex.pairs`) and
    `ConLattice.index` (beside `TupleLattice.index`) did, though only tests
    called them."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.rglob("*.py"))}
    everywhere = [n for t in trees.values() for n in ast.walk(t)]
    used = _used_names(everywhere)
    read_as_attribute = _used_names(everywhere, (ast.Attribute,))
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("__") \
                    or (node.name.startswith("_") and isinstance(node, ast.ClassDef)):
                continue
            inside = list(ast.walk(node))
            if used[node.name] == _used_names(inside)[node.name]:
                found.append(f"{path.relative_to(root)}:{node.name}")
            if isinstance(node, ast.ClassDef):
                inside = _used_names(inside, (ast.Attribute,))
                found += [f"{path.relative_to(root)}:{node.name}.{m.name}"
                          for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                          and read_as_attribute[m.name] == inside[m.name]]
    return found


def matrix_products(path: pathlib.Path) -> list[str]:
    """line of every matrix product in a module: an @ or @= (ast.MatMult),
    or a call of a function or method named dot or matmul."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("dot", "matmul"):
                found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_library_has_no_assert_statements():
    # verification must not rely on assert: python -O strips it
    assert assert_statements(PACKAGE) == []


def test_guard_finds_assert_statements(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(x):\n    # assert in a comment is fine\n    assert x, 'msg'\n")
    assert assert_statements(tmp_path) == ["mod.py:3"]


def test_core_takes_no_matrix_product():
    # the order engine works on bit words; a product is n^3 and, through
    # BLAS, leaves a second thread spinning after it
    assert matrix_products(PACKAGE / "core.py") == []


def test_guard_finds_matrix_products(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import numpy as np\n"
        "from numpy import dot\n\n\n"
        "def f(a, b):\n"
        "    c = a @ b  # a @ in a comment is fine\n"
        "    c @= b\n"
        "    return np.matmul(a, c) + dot(a, b) + a.dot(b) + np.multiply(a, b)\n")
    assert matrix_products(path) == ["mod.py:6", "mod.py:7", "mod.py:8", "mod.py:8", "mod.py:8"]


def test_every_public_function_has_a_library_caller():
    # code that only tests call belongs in the tests; methods and private
    # module-level functions count too, so a test oracle stays out of src
    assert sorted(uncalled_names(PACKAGE)) == sorted(UNCALLED_ALLOWED)


def test_guard_finds_uncalled_public_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return _called()\n\n\n"
        "def unused():\n    return unused()  # a call from inside does not count\n\n\n"
        "def _called():\n    pass\n\n\n"
        "def _private():\n    return _private()\n\n\n"
        "def __getattr__(name):\n    pass\n\n\n"
        "class Shape:\n"
        "    def __init__(self):\n"
        "        self.sides = self.count()  # a use inside the class does not count\n\n"
        "    def count(self):\n        return 4\n\n"
        "    @property\n    def area(self):\n        return 1\n\n"
        "    def _helper(self):\n        pass\n\n\n"
        "class _Hidden:\n    def method(self):\n        pass\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n\n\ndef main():\n    return a.used(), a.Shape().area\n")
    assert uncalled_names(tmp_path) == ["a.py:unused", "a.py:_private", "a.py:Shape.count",
                                        "b.py:main"]


def test_guard_counts_only_attribute_reads_for_methods(tmp_path):
    # a local variable read and an attribute store named like a method do
    # not call it
    (tmp_path / "a.py").write_text(
        "class Partition:\n"
        "    def same(self, a, b):\n        return a == b\n\n"
        "    def size(self):\n        return 0\n\n\n"
        "def main():\n"
        "    p = Partition()\n"
        "    same = p\n"
        "    p.size = 3\n"
        "    return same\n")
    (tmp_path / "b.py").write_text("from .a import main\n\nmain()\n")
    assert uncalled_names(tmp_path) == ["a.py:Partition.same", "a.py:Partition.size"]

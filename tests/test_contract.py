import ast
import collections
import pathlib

import latmod

PACKAGE = pathlib.Path(latmod.__file__).parent

# public names the library does not call yet, each kept for a named use
UNCALLED_ALLOWED = {
    "rank.py:closure4": "the scalar oracle of a planned quadruple scan",
    "catalog.py:check_c1_c4": "the check a planned GLS lattice builder must pass",
}


def assert_statements(root: pathlib.Path) -> list[str]:
    """file:line of every assert statement in the .py files under root."""
    return [f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)]


def _used_names(nodes) -> collections.Counter:
    """How often each name is read, as a bare name or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in nodes if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled_public_names(root: pathlib.Path) -> list[str]:
    """file:name of every public module-level function and class in the
    .py files under root whose name is used nowhere under root outside
    its own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.rglob("*.py"))}
    used = sum((_used_names(ast.walk(t)) for t in trees.values()), collections.Counter())
    return [f"{path.relative_to(root)}:{node.name}"
            for path, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and used[node.name] == _used_names(ast.walk(node))[node.name]]


def test_library_has_no_assert_statements():
    # verification must not rely on assert: python -O strips it
    assert assert_statements(PACKAGE) == []


def test_guard_finds_assert_statements(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(x):\n    # assert in a comment is fine\n    assert x, 'msg'\n")
    assert assert_statements(tmp_path) == ["mod.py:3"]


def test_every_public_function_has_a_library_caller():
    # code that only tests call belongs in the tests
    assert sorted(uncalled_public_names(PACKAGE)) == sorted(UNCALLED_ALLOWED)


def test_guard_finds_uncalled_public_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    pass\n\n\n"
        "def unused():\n    return unused()  # a call from inside does not count\n\n\n"
        "def _private():\n    pass\n\n\n"
        "class Shape:\n    def method(self):\n        pass\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n\n\ndef main():\n    return a.used(), a.Shape\n")
    assert uncalled_public_names(tmp_path) == ["a.py:unused", "b.py:main"]

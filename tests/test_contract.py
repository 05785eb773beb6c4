import ast
import pathlib

import latmod

PACKAGE = pathlib.Path(latmod.__file__).parent


def assert_statements(root: pathlib.Path) -> list[str]:
    """file:line of every assert statement in the .py files under root."""
    return [f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)]


def test_library_has_no_assert_statements():
    # verification must not rely on assert: python -O strips it
    assert assert_statements(PACKAGE) == []


def test_guard_finds_assert_statements(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(x):\n    # assert in a comment is fine\n    assert x, 'msg'\n")
    assert assert_statements(tmp_path) == ["mod.py:3"]

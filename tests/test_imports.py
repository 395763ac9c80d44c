"""The library is stdlib-only at runtime: every import in src/fibmod is
either the standard library or fibmod itself."""

import ast
import pathlib
import sys

import fibmod

_ALLOWED = set(sys.stdlib_module_names) | {"fibmod"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_stdlib_or_fibmod():
    sources = sorted(pathlib.Path(fibmod.__file__).parent.glob("*.py"))
    assert sources
    outside = [
        f"{path.name}:{lineno} imports {root}"
        for path in sources
        for lineno, root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in _ALLOWED
    ]
    assert not outside

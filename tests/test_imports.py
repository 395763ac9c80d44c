"""The library is stdlib-only at runtime: every import in src/fibmod is
either the standard library or fibmod itself.  Its modules import in
layers, and importing it loads no process-pool machinery."""

import ast
import pathlib
import subprocess
import sys

import pytest

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


# Each module imports, from fibmod, only modules before it in this order.
_LAYERS = ("errors", "arith", "fib", "pool", "pisano", "classify", "wss", "verify", "cli")


def _fibmod_imports(tree: ast.AST):
    """(line, module) of each fibmod module that tree imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:  # from . import a, b
                yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "fibmod":
            yield node.lineno, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "fibmod":
                    yield node.lineno, parts[1]


def test_each_module_imports_only_lower_layers():
    package = pathlib.Path(fibmod.__file__).parent
    sources = {path.stem: path for path in package.glob("*.py")}
    assert sorted(sources) == sorted(_LAYERS + ("__init__",))
    upward = [
        f"{name}.py:{lineno} imports {module}"
        for name, path in sources.items()
        if name != "__init__"
        for lineno, module in _fibmod_imports(ast.parse(path.read_text(encoding="utf-8")))
        if module not in _LAYERS[: _LAYERS.index(name)]
    ]
    assert not upward


# the process-pool stdlib costs tens of ms to import; ordered_map loads it
# only when a pool starts
_POOL_STDLIB = """
import sys
import {module}
print(" ".join(sorted({{"multiprocessing", "concurrent.futures.process"}} & set(sys.modules))))
"""


@pytest.mark.parametrize("module", ["fibmod", "fibmod.cli"])
def test_import_loads_no_process_pool_stdlib(module):
    src = str(pathlib.Path(fibmod.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _POOL_STDLIB.format(module=module)],
        capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"

"""Smoke test of tools/kernel_ratio.py, the per-prime kernel report."""

import ast
import pathlib
import subprocess
import sys

import fibmod

from helpers import primes_between

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "kernel_ratio.py"


def test_kernel_ratio_imports_only_the_stdlib_and_fibmod():
    tree = ast.parse(TOOL.read_text(encoding="utf-8"))
    roots = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    roots |= {node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert roots <= set(sys.stdlib_module_names) | {"fibmod"}


def test_kernel_ratio_at_1e5():
    src = str(pathlib.Path(fibmod.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, str(TOOL), "--width", "1000", "--repeat", "1", "1e5"],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.splitlines()
    assert header.split()[2:] == ["primes", "kernel", "us", "ladder", "us", "ratio", "MR", "pow/p"]
    magnitude, primes, kernel_us, ladder_us, ratio, pows = row.split()
    assert magnitude == "1e5"
    assert int(primes) == len(primes_between(10**5, 10**5 + 999))
    assert float(kernel_us) > float(ladder_us) > 0
    assert float(ratio) > 1
    # the window is sieved whole, so the only proof is the gate's, with the bases {2, 7, 61}
    assert pows == "3.00"

"""Runs fibmod's audit and scan-determinism checks on each given Python
interpreter, to test the floor that pyproject.toml declares.

For each interpreter, with PYTHONPATH set to this checkout's src:

  * run_suites("all", 2000) must pass every property;
  * wss-scan of [2, 30000] with --jobs 1 and with --jobs 2 must exit 0 and
    leave byte-identical checkpoints (modulo wall time) and results files;
  * that finished scan, re-run, must exit 0 and leave both files
    byte-identical, and re-run with its results file emptied must exit 2;
  * wss-scan of [2^64 - 100, 2^64 - 1], the top of the scan's domain, must
    exit 0 and write the results lines of its 3 primes.

Prints one PASS or FAIL line per interpreter and exits 1 on any FAIL.
Needs only the standard library, in this interpreter and in each tested one.

    python3 tools/compat.py [PYTHON ...]   # default: this interpreter
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
VERIFY_MAX = 2000
SCAN_HI = 30_000
TOP = (2**64 - 100, 2**64 - 1)  # holds the primes 2^64 - 95, - 83 and - 59
TOP_PRIMES = 3
TIMEOUT_S = 600

# prints the interpreter's version, then exits non-zero naming any failed property
_VERIFY = f"""
import platform, sys
from fibmod.verify import run_suites
print(platform.python_version())
failed = [r.name for r in run_suites("all", {VERIFY_MAX}) if not r.passed]
sys.exit(f"failed: {{failed}}" if failed else 0)
"""


def _run(python: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([python, *args], capture_output=True, text=True, env=env, timeout=TIMEOUT_S)


def _failed(what: str, done: subprocess.CompletedProcess) -> str:
    lines = done.stderr.strip().splitlines()
    return f"{what} exited {done.returncode}: {lines[-1] if lines else ''}"


def check(python: str) -> tuple[str, str | None]:
    """python's version, and None if it passes every check, else what failed first."""
    done = _run(python, "-c", _VERIFY)
    version = done.stdout.strip() or "?"
    if done.returncode != 0:
        return version, _failed(f"run_suites('all', {VERIFY_MAX})", done)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for jobs in (1, 2):
            ck, out = pathlib.Path(tmp, f"ck{jobs}.json"), pathlib.Path(tmp, f"res{jobs}.jsonl")
            scan = ("-m", "fibmod.cli", "wss-scan", "--from", "2", "--to", str(SCAN_HI),
                    "--jobs", str(jobs), "--checkpoint", str(ck), "--out", str(out))
            done = _run(python, *scan)
            if done.returncode != 0:
                return version, _failed(f"wss-scan --jobs {jobs}", done)
            checkpoint = re.sub(rb'"wall_time_seconds": [0-9.eE+-]+', b"", ck.read_bytes())
            outputs.append((checkpoint, out.read_bytes()))
        finished = ck.read_bytes(), out.read_bytes()
        done = _run(python, *scan)
        if done.returncode != 0:
            return version, _failed("a finished wss-scan's re-run", done)
        if (ck.read_bytes(), out.read_bytes()) != finished:
            return version, "a finished wss-scan's re-run changed its files"
        out.write_bytes(b"")
        done = _run(python, *scan)
        if done.returncode != 2:
            return version, (f"a finished wss-scan's re-run with its results emptied "
                             f"exited {done.returncode}, not 2")
        ck, out = pathlib.Path(tmp, "ck-top.json"), pathlib.Path(tmp, "res-top.jsonl")
        done = _run(python, "-m", "fibmod.cli", "wss-scan", "--from", str(TOP[0]), "--to", str(TOP[1]),
                    "--checkpoint", str(ck), "--out", str(out))
        if done.returncode != 0:
            return version, _failed("wss-scan below 2^64", done)
        top_lines = len(out.read_bytes().splitlines())
    (ck1, res1), (ck2, res2) = outputs
    if ck1 != ck2:
        return version, "--jobs 1 and --jobs 2 checkpoints differ"
    if res1 != res2:
        return version, "--jobs 1 and --jobs 2 results differ"
    if top_lines != TOP_PRIMES:
        return version, f"wss-scan below 2^64 wrote {top_lines} results lines, not {TOP_PRIMES}"
    return version, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="*", metavar="PYTHON", default=[sys.executable])
    args = parser.parse_args()
    failed = False
    for python in args.pythons:
        try:
            version, problem = check(python)
        except (OSError, subprocess.TimeoutExpired) as exc:
            version, problem = "?", str(exc)
        failed |= problem is not None
        print(f"{'FAIL' if problem else 'PASS'} {python} ({version})" + (f": {problem}" if problem else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden-output lock on the command line.

For a fixed set of commands this pins the exit code, stdout, stderr, the
checkpoint bytes and the results lines, plus the package's public names.
Only elapsed_ms, wall_time_seconds and the temporary directory are masked.
Refactors must leave every recorded byte unchanged.  After an intended
output change, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import tempfile
from unittest import mock

import pytest

import fibmod
import fibmod.classify as classify_module
import fibmod.pisano as pisano_module
import fibmod.wss as wss_module
from fibmod.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

_SCAN = ["wss-scan", "--from", "2", "--to", "3000", "--block-size", "500",
         "--checkpoint", "{tmp}/ck.json", "--out", "{tmp}/results.jsonl"]
_HIT_SCAN = ["wss-scan", "--from", "2", "--to", "20",
             "--checkpoint", "{tmp}/ck.json", "--out", "{tmp}/results.jsonl"]

CASES = {
    "fib 24": ["fib", "24"],
    "fib 24 --json": ["fib", "24", "--json"],
    "fib 10 --mod 7 --json": ["fib", "10", "--mod", "7", "--json"],
    "profile 5 --json": ["profile", "5", "--json"],
    "profile 11 --json": ["profile", "11", "--json"],
    "profile 2187 --json": ["profile", "2187", "--json"],
    "profile 2000003 --json": ["profile", "2000003", "--json"],
    "profile 1105": ["profile", "1105"],
    "profile 1105 --json": ["profile", "1105", "--json"],
    "good 21": ["good", "21"],
    "good 21 --json": ["good", "21", "--json"],
    "good 1105 --method fast --json": ["good", "1105", "--method", "fast", "--json"],
    "good --range 3 400": ["good", "--range", "3", "400"],
    "good --range 3 400 --json": ["good", "--range", "3", "400", "--json"],
    "wss-scan --jobs 1 --json": _SCAN + ["--jobs", "1", "--json"],
    "wss-scan --jobs 2 --json": _SCAN + ["--jobs", "2", "--json"],
    "wss-scan synthetic hit": _HIT_SCAN,
    "wss-scan synthetic hit --json": _HIT_SCAN + ["--json"],
    "verify --suite all --max 300": ["verify", "--suite", "all", "--max", "300"],
    "verify --suite all --max 300 --json": ["verify", "--suite", "all", "--max", "300", "--json"],
    "verify --suite all --max 300 injected faults":
        ["verify", "--suite", "all", "--max", "300"],
    "verify --suite all --max 300 injected faults --json":
        ["verify", "--suite", "all", "--max", "300", "--json"],
    "usage: fib without index": ["fib"],
    "usage: good with m and --range": ["good", "5", "--range", "3", "9"],
}

_MASKED = re.compile(r'("(?:elapsed_ms|wall_time_seconds)": )[0-9.eE+-]+')


def _fake_hit_check(real_check):
    # p = 11 becomes a WSS hit whose two criteria disagree, as in test_hit_exit_code
    def check(p, facts=None):
        record = real_check(p, facts)
        if p == 11:
            record = dataclasses.replace(
                record, residue_fib_index_mod_p2=0, is_wss=True, criteria_agree=False
            )
        return record

    return check


def _fake_good_direct(real_direct):
    # the direct goodness route, the half-period test that verify and
    # is_good_direct read, answers wrongly at four odd moduli: one prime,
    # three composites whose prime factors all have zero count 4
    def direct(m, gamma):
        return not real_direct(m, gamma) if m in (13, 65, 85, 221) else real_direct(m, gamma)

    return direct


def _fake_profiles_direct(real_direct):
    # the direct period is one too large at m = 100; its rank and zero count stay right
    def direct(moduli):
        return [dataclasses.replace(prof, gamma=prof.gamma + 1) if prof.m == 100 else prof
                for prof in real_direct(moduli)]

    return direct


def _lines(text: str, tmp: str) -> list[str]:
    return _MASKED.sub(r'\1"<masked>"', text.replace(tmp, "<tmp>")).splitlines(keepends=True)


def run_case(name: str) -> dict:
    """Run one case in a fresh temporary directory and return its masked outputs."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        # argparse wraps usage text to the terminal width
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        if "synthetic hit" in name:
            fake = _fake_hit_check(wss_module.wss_check)
            stack.enter_context(mock.patch.object(wss_module, "wss_check", fake))
        if "injected faults" in name:
            good = _fake_good_direct(classify_module._half_period_is_negative_identity)
            prof = _fake_profiles_direct(pisano_module.profiles_direct)
            stack.enter_context(mock.patch.object(classify_module, "_half_period_is_negative_identity", good))
            stack.enter_context(mock.patch.object(pisano_module, "profiles_direct", prof))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(tmp=tmp) for arg in CASES[name]])
        files = {}
        for filename in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, filename), encoding="utf-8") as fh:
                files[filename] = _lines(fh.read(), tmp)
        return {
            "exit": code,
            "stdout": _lines(out.getvalue(), tmp),
            "stderr": _lines(err.getvalue(), tmp),
            "files": files,
        }


def record() -> dict:
    return {
        "all": sorted(fibmod.__all__),
        "cases": {name: run_case(name) for name in CASES},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_cases_match_recording(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_case_output_unchanged(golden, name):
    assert run_case(name) == golden["cases"][name]


def test_public_names_unchanged(golden):
    assert sorted(fibmod.__all__) == golden["all"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")


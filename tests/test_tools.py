"""Smoke tests of tools/kernel_ratio.py, the per-prime kernel report, of
tools/bench_pairs.py, the paired benchmark report, of tools/compat.py, the
interpreter check, of tools/verify_split.py, verify's time split, of
tools/census.py, the zero-count census of primes, of
tools/import_time.py, fibmod's import time per checkout, and of
tools/resume_time.py, the time of a scan's results-file check per checkout."""

import ast
import dataclasses
import importlib.util
import os
import pathlib
import platform
import shutil
import subprocess
import sys
from collections import Counter
from unittest import mock

import pytest

import fibmod
import fibmod.pisano as pisano_module
import fibmod.wss as wss_module
from fibmod.pisano import pisano_direct, profile_direct
from fibmod.verify import run_suites
from fibmod.wss import wss_check

from helpers import binding_calls, factorize_calls, odd_prime_tests, primes_between, route_pows

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "kernel_ratio.py"
PAIRS = TOOL.with_name("bench_pairs.py")
COMPAT = TOOL.with_name("compat.py")
SPLIT = TOOL.with_name("verify_split.py")
CENSUS = TOOL.with_name("census.py")
IMPORT_TIME = TOOL.with_name("import_time.py")
RESUME_TIME = TOOL.with_name("resume_time.py")


def _import_roots(tool: pathlib.Path) -> set[str]:
    """The top-level packages that tool imports."""
    tree = ast.parse(tool.read_text(encoding="utf-8"))
    roots = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    return roots | {node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


def _run_tool(tool: pathlib.Path, *args: str) -> str:
    """tool's output, run with fibmod's source on PYTHONPATH; it must exit 0."""
    src = str(pathlib.Path(fibmod.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, str(tool), *args], capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_kernel_ratio_imports_only_the_stdlib_and_fibmod():
    assert _import_roots(TOOL) <= set(sys.stdlib_module_names) | {"fibmod"}


@pytest.mark.parametrize("tool", [SPLIT, CENSUS], ids=lambda t: t.stem)
def test_tool_imports_only_the_stdlib_and_fibmod(tool):
    assert _import_roots(tool) <= set(sys.stdlib_module_names) | {"fibmod"}


_SPLIT_ROWS = ["suite", "max", "wall_s", "caller_cpu_s", "workers_cpu_s", "factorize_calls", "profile_calls",
               "is_prime_calls", "root5_calls", "scanned_moduli", "direct_terms", "direct_serial_s", "direct_ns_term",
               "lanes_serial_s", "lanes_ns_term"]
_CALLS = ("factorize", "profile", "is_prime", "root5")  # the counted calls, as the tool names their rows


def _fresh_verify_calls(max_value: int) -> tuple[int, int, int, int]:
    """The factorize, fast-profile, is_prime and _root5 calls of
    run_suites("all", max_value) with the period memos empty, as in a new
    process, on one CPU, so that the pass runs here and every call is counted."""
    for memo in (pisano_module.prime_period, pisano_module.lifting_exponent, pisano_module._prime_zero_count):
        memo.cache_clear()
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}), factorize_calls() as factored, \
            binding_calls(pisano_module._profile_with_period) as profiled, \
            binding_calls(pisano_module.is_prime) as proved, binding_calls(pisano_module._root5) as rooted:
        run_suites("all", max_value)
    return len(factored), len(profiled), len(proved), len(rooted)


def _verify_split(max_value: int) -> dict[str, str]:
    rows = [line.split() for line in _run_tool(SPLIT, "--max", str(max_value)).splitlines()]
    assert [name for name, _ in rows] == _SPLIT_ROWS
    lines = dict(rows)
    assert (lines["suite"], lines["max"]) == ("all", str(max_value))
    assert int(lines["direct_terms"]) == sum(pisano_direct(m) for m in range(2, max_value + 1))
    for name in ("wall_s", "caller_cpu_s", "direct_serial_s", "direct_ns_term", "lanes_serial_s", "lanes_ns_term"):
        assert float(lines[name]) > 0, name
    # the counted run counts what the test's own counters count
    assert tuple(int(lines[f"{name}_calls"]) for name in _CALLS) == _fresh_verify_calls(max_value)
    return lines


def test_verify_split_at_300():
    # one chunk of moduli: the scans run in the calling process, and no pool opens
    lines = _verify_split(300)
    assert float(lines["workers_cpu_s"]) == 0
    # 299 moduli, 62 primes: factorize takes each modulus, the odd part of
    # each prime's bound but those of 3, 7 and 127, which are 1, and 119
    # moduli of the fixed-input checks; is_prime proves each prime once;
    # each of the 28 primes with chi = +1 takes its root of 5 once for its
    # period, once for its criteria
    assert tuple(int(lines[f"{name}_calls"]) for name in _CALLS) == (477, 457, 62, 56)
    # in all the pisano suite names every modulus, and the lanes scan each once
    assert lines["scanned_moduli"] == "299"


def test_verify_split_past_one_chunk():
    # two chunks: a pool of two workers where two CPUs can run, else none
    pooled = len(os.sched_getaffinity(0)) > 1
    assert (float(_verify_split(2050)["workers_cpu_s"]) > 0) == pooled


def test_verify_split_counts_the_whole_run_whether_or_not_a_pool_starts(monkeypatch, capsys):
    # two chunks at 2050: the timed run opens a pool on two CPUs and none on
    # one, and the counted run counts the same calls either way
    tool = _load_tool(SPLIT)
    counts = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert tool.main(["--max", "2050"]) == 0
        lines = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert (float(lines["workers_cpu_s"]) > 0) == (len(cpus) > 1)
        counts[len(cpus)] = tuple(int(lines[f"{name}_calls"]) for name in _CALLS)
    assert counts[1] == counts[2] == _fresh_verify_calls(2050)


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
    assert header.split()[2:] == [
        "primes", "kernel", "us", "sieve", "us/p", "strike", "us/p", "ladder", "us", "ratio", "MR", "pow/p",
        "route", "pow/p", "ladders/p", "rho/p"
    ]
    magnitude, primes, kernel_us, sieve_us, strike_us, ladder_us, ratio, pows, route, ladders, rhos = row.split()
    assert magnitude == "1e5"
    window = primes_between(10**5, 10**5 + 999)
    assert int(primes) == len(window)
    plus = [p for p in window if p % 5 in (1, 4)]
    # per prime: wss_check's gamma criterion mod p^2; for chi = -1 its index
    # criterion too, then prime_period's one ladder for its premise and
    # halvings, and one per odd-prime test
    want = sum(1 if p in plus else 3 + odd_prime_tests(p, pisano_direct(p)) for p in window) / len(window)
    assert ladders == f"{want:.2f}"
    # for chi = +1: prime_period's root, lift and order reduction, then the
    # index residue's phi^(p-1) mod p^2 and one inverse
    want = sum(route_pows(p, pisano_direct(p)) + 2 for p in plus) / len(window)
    assert route == f"{want:.2f}"
    assert float(kernel_us) > float(ladder_us) > 0
    # the window sieve's share and the check's strike pass are part of the kernel
    assert 0 < float(sieve_us) < float(kernel_us)
    assert 0 < float(strike_us) < float(kernel_us)
    assert float(ratio) > 1
    # the window sieve strikes with every prime up to isqrt(hi), and the
    # period's gate takes each prime given its block's facts as proven; at
    # B = isqrt(hi + 1) every cofactor of a period bound is 1 or prime, so
    # none goes to is_prime or rho
    assert pows == "0.00"
    assert rhos == "0.00"


def test_compat_passes_this_interpreter_and_fails_a_missing_one(tmp_path):
    missing = tmp_path / "python"
    done = subprocess.run(
        [sys.executable, str(COMPAT), sys.executable, str(missing)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stderr
    passed, failed = done.stdout.splitlines()
    assert passed == f"PASS {sys.executable} ({platform.python_version()})"
    assert failed.startswith(f"FAIL {missing} (?): ")


def test_compat_scans_the_top_of_the_domain(monkeypatch):
    # wss-scan of [2^64 - 100, 2^64 - 1] must exit 0 and write its 3 primes' lines
    compat = _load_tool(COMPAT)
    real_run, scans, drop = compat._run, [], []

    def run(python, *args):
        if args[0] == "-c":  # the audit suites, run by the test above
            return subprocess.CompletedProcess(args, 0, stdout="3.x\n", stderr="")
        done = real_run(python, *args)
        span = (args[args.index("--from") + 1], args[args.index("--to") + 1])
        scans.append(span)
        if drop and span[0] == str(2**64 - 100):
            out = pathlib.Path(args[args.index("--out") + 1])
            out.write_bytes(b"".join(out.read_bytes().splitlines(keepends=True)[:2]))
        return done

    monkeypatch.setattr(compat, "_run", run)
    assert compat.check(sys.executable) == ("3.x", None)
    # --jobs 1, --jobs 2, the finished scan's two re-runs, its resume past
    # an orphan line and its re-run with a line off the grammar, then the top
    assert scans == [("2", "30000")] * 6 + [(str(2**64 - 100), str(2**64 - 1))]
    drop.append(True)
    assert compat.check(sys.executable) == ("3.x", "wss-scan below 2^64 wrote 2 results lines, not 3")


@pytest.mark.parametrize("fault, problem", [
    ("rewrite", "a finished wss-scan's re-run changed its files"),
    ("accept", "a finished wss-scan's re-run with its results emptied exited 0, not 2"),
])
def test_compat_reruns_the_finished_scan(monkeypatch, fault, problem):
    # the re-run must leave both files byte-identical, and refuse (exit 2)
    # once its results file is emptied
    compat = _load_tool(COMPAT)
    real_run, codes = compat._run, []

    def run(python, *args):
        if args[0] == "-c":
            return subprocess.CompletedProcess(args, 0, stdout="3.x\n", stderr="")
        done = real_run(python, *args)
        codes.append(done.returncode)
        out = pathlib.Path(args[args.index("--out") + 1])
        if len(codes) == 3 and fault == "rewrite":
            out.write_bytes(out.read_bytes() + b"\n")
        if len(codes) == 4 and fault == "accept":
            return subprocess.CompletedProcess(args, 0, stdout="", stderr="")
        return done

    monkeypatch.setattr(compat, "_run", run)
    assert compat.check(sys.executable) == ("3.x", problem)
    # the real re-runs: the first exits 0, the emptied one 2
    assert codes == ([0, 0, 0] if fault == "rewrite" else [0, 0, 0, 2])


@pytest.mark.parametrize("fault, problem", [
    ("keep-orphan", "a wss-scan resumed from 20000 past an orphan line left other results"),
    ("accept", 'a finished wss-scan\'s re-run with a {"p": 7} line exited 0, not 2'),
])
def test_compat_resumes_past_an_orphan_and_refuses_a_line_off_the_grammar(monkeypatch, fault, problem):
    # the resume from 20000 must cut the orphan line and leave the whole
    # scan's results, and the re-run with {"p": 7} for the line of 7 exit 2
    compat = _load_tool(COMPAT)
    real_run, codes = compat._run, []

    def run(python, *args):
        if args[0] == "-c":
            return subprocess.CompletedProcess(args, 0, stdout="3.x\n", stderr="")
        out = pathlib.Path(args[args.index("--out") + 1])
        orphan = out.read_bytes().splitlines(keepends=True)[-1] if len(codes) == 4 else b""
        done = real_run(python, *args)
        codes.append(done.returncode)
        if len(codes) == 5 and fault == "keep-orphan":
            out.write_bytes(out.read_bytes() + orphan)
        if len(codes) == 6 and fault == "accept":
            return subprocess.CompletedProcess(args, 0, stdout="", stderr="")
        return done

    monkeypatch.setattr(compat, "_run", run)
    assert compat.check(sys.executable) == ("3.x", problem)
    # the real runs: the scans and the first re-run exit 0, the emptied one 2,
    # the resume 0 and the re-run with a line off the grammar 2
    assert codes == ([0, 0, 0, 2, 0] if fault == "keep-orphan" else [0, 0, 0, 2, 0, 2])


def test_bench_pairs_imports_only_the_stdlib():
    assert _import_roots(PAIRS) <= set(sys.stdlib_module_names)


def _summary(wall_s, throughput, correct=True, failed=0, child_rss=0.0):
    metrics = {"wall_s": {"value": wall_s}, "throughput_per_s": {"value": throughput}}
    return {"correct": correct, "failed": failed, "metrics": metrics, "pool_child_rss_mib": child_rss}


def _load_tool(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _bench_pairs():
    return _load_tool(PAIRS)


def test_bench_pairs_summary_on_canned_numbers():
    tool = _bench_pairs()
    metrics = [
        {"name": "wall_s", "better": "lower", "bound": 0.24},
        {"name": "throughput_per_s", "better": "higher", "bound": 0.24},
    ]
    parent = [_summary(w, t) for w, t in [(1.0, 10), (1.1, 10), (1.2, 10), (1.3, 10)]]
    change = [_summary(w, t) for w, t in [(1.0, 11), (1.5, 12), (1.6, 9), (1.7, 13)]]
    lines, ok = tool.summarize(metrics, parent, change)
    assert ok
    assert lines[0].split() == ["metric", "parent", "change", "ratio", "parent_iqr", "wins"]
    # medians 1.15 -> 1.55 is 35% worse; the tie in the first pair counts for neither side
    assert lines[1].split() == ["wall_s", "1.15", "1.55", "1.348", "0.25", "0/4", "WORSE", "(bound", "24%)"]
    assert lines[2].split() == ["throughput_per_s", "10", "11.5", "1.150", "0", "3/4"]
    # runs with no pool leave no children: no ratio, and never WORSE
    assert lines[3].split() == ["pool_child_rss_mib", "0", "0", "nan", "0", "0/4", "(not", "a",
                                "BENCHMARK.json", "metric)"]
    assert len(lines) == 4
    # the workers' peak is lower-is-better and has no bound
    parent = [_summary(1.0, 10, child_rss=r) for r in (15.0, 16.0, 16.0, 17.0)]
    change = [_summary(1.0, 10, child_rss=r) for r in (14.0, 14.5, 30.0, 40.0)]
    assert tool.summarize(metrics, parent, change)[0][3].split() == [
        "pool_child_rss_mib", "16", "22.25", "1.391", "1.5", "2/4", "(not", "a", "BENCHMARK.json", "metric)"
    ]
    change[2] = _summary(1.6, 9, failed=1)
    lines, ok = tool.summarize(metrics, parent, change)
    assert not ok and lines[-1] == "1 run(s) not correct or with failed items"
    parent[0] = _summary(1.0, 10, correct=False)
    assert tool.summarize(metrics, parent, change)[1] is False


# stands in for benchmarks/run.py: writes its document, prints its summary
_FAKE_RUN = """
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
name = f"BENCH_{args['--workload']}_seed{args['--seed']}_trace{args['--trace']}.json"
os.makedirs(".bench_out", exist_ok=True)
with open(os.path.join(".bench_out", name), "w") as fh:
    json.dump({"repetitions": [{"child_rss_kib": k} for k in (10240, 15360, 20480)]}, fh)
print("noise")
print(json.dumps({"correct": True, "failed": 0, "metrics": {}}))
"""


def test_bench_pairs_marks_a_metric_whose_parent_spread_exceeds_its_bound_noisy():
    tool = _bench_pairs()
    metrics = [
        {"name": "wall_s", "better": "lower", "bound": 0.24},
        {"name": "throughput_per_s", "better": "higher", "bound": 0.24},
    ]
    # wall_s: the parent's IQR, 1.0, is 67% of its median 1.5; throughput: 0.5 of 10 is 5%
    parent = [_summary(w, t) for w, t in [(1.0, 10), (1.0, 9.8), (2.0, 10.2), (2.0, 10.4)]]
    change = [_summary(w, t) for w, t in [(2.5, 7), (2.5, 7), (2.5, 7), (2.0, 7)]]
    lines, ok = tool.summarize(metrics, parent, change)
    assert ok
    # a WORSE flag on a noisy metric asks for fresh seeds; a steady metric's stays plain
    assert lines[1].split() == ["wall_s", "1.5", "2.5", "1.667", "1", "0/4", "WORSE", "(bound", "24%)",
                                "noisy:", "parent", "IQR", ">", "bound,", "re-run", "on", "fresh", "seeds"]
    assert lines[2].split() == [
        "throughput_per_s", "10.1", "7", "0.693", "0.5", "0/4", "WORSE", "(bound", "24%)"
    ]
    # noisy without a WORSE flag: the change may be no worse, but the runs cannot show it
    change = [_summary(1.5, 10) for _ in range(4)]
    assert tool.summarize(metrics, parent, change)[0][1].split() == [
        "wall_s", "1.5", "1.5", "1.000", "1", "2/4", "noisy:", "parent", "IQR", ">", "bound"
    ]
    # the pool children's row has no bound, so it is never noisy
    parent = [_summary(1.0, 10, child_rss=r) for r in (10.0, 10.0, 30.0, 30.0)]
    assert "noisy" not in tool.summarize(metrics, parent, change)[0][3]


def test_bench_pairs_reads_the_pool_children_from_the_run_document(tmp_path):
    tool = _bench_pairs()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "run.py").write_text(_FAKE_RUN, encoding="utf-8")
    summary = tool.run(str(tmp_path), "verify-all", 7)
    assert summary == {"correct": True, "failed": 0, "metrics": {}, "pool_child_rss_mib": 15.0}


def test_census_at_1e4_agrees_with_the_direct_scan():
    lines = [line.split() for line in _run_tool(CENSUS, "7", "1e4").splitlines()]
    counts = {line[0]: int(line[1]) for line in lines}
    want = Counter()
    for p in primes_between(7, 10**4):
        prof = profile_direct(p)
        want[f"upsilon={prof.upsilon}"] += 1
        want["good"] += prof.gamma % 4 == 0
    assert counts == {
        "primes": len(primes_between(7, 10**4)),
        "upsilon=1": want["upsilon=1"],
        "upsilon=2": want["upsilon=2"],
        "upsilon=4": want["upsilon=4"],
        "good": want["good"],
        "upsilon<=2": want["upsilon=1"] + want["upsilon=2"],
    }
    assert lines[-1][-4:] == ["Lagarias", "2/3", "=", "0.6667"]
    for line in lines[1:]:
        assert line[2] == f"{int(line[1]) / counts['primes']:.4f}"


def test_import_time_imports_only_the_stdlib():
    assert _import_roots(IMPORT_TIME) <= set(sys.stdlib_module_names)


def test_import_time_reports_each_checkout(tmp_path):
    # two checkouts: this one and a copy of its src, each timed three times
    repo = pathlib.Path(fibmod.__file__).parents[2]
    copy = tmp_path / "copy"
    shutil.copytree(repo / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(IMPORT_TIME), str(repo), str(copy), "--runs", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    assert header == ["checkout", "median_ms", "iqr_ms", "runs"]
    assert [row[0] for row in rows] == [str(repo), str(copy)]
    for _, median, spread, runs in rows:
        assert 0 < float(median) < 10_000 and float(spread) >= 0 and runs == "3"
    assert list((copy / "src" / "fibmod" / "__pycache__").glob("*.pyc"))  # compiled first


def test_resume_time_imports_only_the_stdlib():
    assert _import_roots(RESUME_TIME) <= set(sys.stdlib_module_names)


def test_resume_time_writes_result_lines_and_reports_each_checkout_and_pass(tmp_path):
    # its lines are _result_line's; two checkouts, this one and a copy of its
    # src, each timed twice per pass on a 2,000-line file
    tool = _load_tool(RESUME_TIME)
    for p in (tool.LAST, 10**12 + 61, 5):
        record = dataclasses.replace(wss_check(p), residue_fib_index_mod_p2=p * p // 7)
        assert tool.line(p) == wss_module._result_line(record)
    repo = pathlib.Path(fibmod.__file__).parents[2]
    copy = tmp_path / "copy"
    shutil.copytree(repo / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(RESUME_TIME), str(repo), str(copy), "--lines", "2000", "--runs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    assert header == ["checkout", "pass", "median_s", "iqr_s", "peak_rss_mib", "runs"]
    assert [row[:2] for row in rows] == [[str(repo), "resume"], [str(repo), "finished"],
                                         [str(copy), "resume"], [str(copy), "finished"]]
    for _, _, median, spread, rss, runs in rows:
        assert 0 < float(median) < 60 and float(spread) >= 0 and float(rss) > 0 and runs == "2"

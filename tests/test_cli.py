import contextlib
import fcntl
import functools
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

import fibmod.pisano as pisano_module
import fibmod.wss as wss_module
from fibmod.arith import sieve_upto
from fibmod.cli import main
from fibmod.errors import CheckpointError
from fibmod.wss import load_checkpoint

from helpers import fib_upto, interrupted_scan

_TEST_PID = os.getpid()
_real_scan_block = wss_module._scan_block
_real_profile_direct = pisano_module.profile_direct


def _die_after_two_blocks(bounds):
    # stands in for wss._scan_block inside pool workers
    if os.getpid() == _TEST_PID:
        raise RuntimeError("expected to run in a worker process")
    if bounds[0] > 1000:
        os._exit(1)
    return _real_scan_block(bounds)


def _die_past_m_1000(m):
    # stands in for pisano.profile_direct inside verify's pool workers
    if os.getpid() == _TEST_PID:
        raise RuntimeError("expected to run in a worker process")
    if m > 1000:
        os._exit(1)
    return _real_profile_direct(m)


def _refuse_inherited_lock(lock_path, bounds):
    # stands in for wss._scan_block inside pool workers
    if os.getpid() == _TEST_PID:
        raise RuntimeError("expected to run in a worker process")
    lock = os.stat(lock_path)
    for name in os.listdir("/dev/fd"):
        with contextlib.suppress(OSError):
            if os.path.samestat(os.fstat(int(name)), lock):
                raise AssertionError(f"worker holds the scan lock as fd {name}")
    return _real_scan_block(bounds)


# a --jobs 2 scan whose workers each record their pid in argv[1], then stay
# busy with their block; argv[2:] is the wss-scan command line
_REPORTING_SCAN = """
import os, sys, time
import fibmod.wss as wss
from fibmod.cli import main

def report_and_wait(bounds):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

wss._scan_block = report_and_wait
sys.exit(main(sys.argv[2:]))
"""


# a --jobs 2 scan of [2, 3001] in three blocks whose workers record their pid
# in argv[1]; the first two blocks take 0.2 s each and the last 1 s, so that
# once two blocks are checkpointed one worker is idle and the other busy
_SLOW_SCAN = """
import os, sys, time
import fibmod.wss as wss
from fibmod.cli import main

scan_block = wss._scan_block

def report_and_scan(bounds):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(1 if bounds[0] > 2000 else 0.2)
    return scan_block(bounds)

wss._scan_block = report_and_scan
sys.exit(main(sys.argv[2:]))
"""


# verify whose direct-scan workers each record their pid in argv[1] at
# their first scan, and whose fast route takes argv[2] more seconds per
# modulus: with a delay the workers wait idle for chunks, without one they
# are busy; argv[3:] is the verify command line
_REPORTING_VERIFY = """
import os, sys, time
import fibmod.pisano as pisano
from fibmod.cli import main

profile, profile_direct = pisano.profile, pisano.profile_direct
delay = float(sys.argv[2])

def report_and_scan(m):
    open(os.path.join(sys.argv[1], str(os.getpid())), "a").close()
    return profile_direct(m)

def slow_profile(m):
    time.sleep(delay)
    return profile(m)

pisano.profile_direct = report_and_scan
if delay:
    pisano.profile = slow_profile
sys.exit(main(sys.argv[3:]))
"""


def _note_block(blocks_dir, bounds):
    # stands in for wss._scan_block: records which blocks a scan visits
    open(os.path.join(blocks_dir, str(bounds[0])), "w").close()
    return _real_scan_block(bounds)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # an exited worker stays a zombie until its new parent reaps it
    with contextlib.suppress(OSError):
        return pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    return True


def _normalized(path):
    return re.sub(r'"wall_time_seconds": [0-9.eE+-]+', "", path.read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    doc = json.loads(out)  # must be exactly one JSON document
    assert sorted(doc) == ["command", "elapsed_ms", "inputs", "output"]
    return code, doc, err


class TestFibCommand:
    def test_exact(self, capsys):
        code, out, _ = run(capsys, "fib", "24")
        assert code == 0 and out.strip() == "46368"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "fib", "0")
        assert code == 0 and out.strip() == "0"

    def test_modular_matches_exact(self, capsys):
        code, doc, _ = run_json(capsys, "fib", "100", "--mod", "1000000007", "--json")
        assert code == 0
        assert doc["output"]["value"] == fib_upto(100)[100] % 1000000007

    def test_json_document(self, capsys):
        code, doc, _ = run_json(capsys, "fib", "24", "--json")
        assert doc["command"] == "fib"
        assert doc["inputs"] == {"n": 24, "mod": None}
        assert doc["output"] == {"n": 24, "value": 46368}

    def test_over_cap_is_usage_error(self, capsys):
        code, out, err = run(capsys, "fib", "2000000")
        assert code == 1 and "cap" in err

    def test_huge_index_fine_with_mod(self, capsys):
        code, out, _ = run(capsys, "fib", "10000000000", "--mod", "997")
        assert code == 0

    def test_missing_argument(self, capsys):
        code, _, _ = run(capsys, "fib")
        assert code == 1


class TestProfileCommand:
    def test_five(self, capsys):
        code, doc, _ = run_json(capsys, "profile", "5", "--json")
        assert code == 0
        assert doc["output"] == {"m": 5, "gamma": 20, "alpha": 5, "upsilon": 4}

    def test_two(self, capsys):
        code, doc, _ = run_json(capsys, "profile", "2", "--json")
        assert doc["output"] == {"m": 2, "gamma": 3, "alpha": 3, "upsilon": 1}

    def test_ten(self, capsys):
        code, doc, _ = run_json(capsys, "profile", "10", "--json")
        assert doc["output"]["gamma"] == 60

    def test_below_two_is_usage_error(self, capsys):
        code, _, err = run(capsys, "profile", "1")
        assert code == 1


class TestGoodCommand:
    def test_single_good(self, capsys):
        code, doc, _ = run_json(capsys, "good", "5", "--json")
        assert code == 0
        assert doc["output"]["is_good"] is True
        assert doc["output"]["method"] == "both"

    def test_single_even(self, capsys):
        code, doc, _ = run_json(capsys, "good", "6", "--json")
        assert code == 0
        assert doc["output"]["is_good"] is False

    def test_range_both_methods_no_disagreement(self, capsys):
        code, doc, _ = run_json(capsys, "good", "--range", "3", "999", "--method", "both", "--json")
        assert code == 0
        assert doc["output"]["checked"] == 997
        assert 5 in doc["output"]["good"]
        assert all(m % 2 == 1 for m in doc["output"]["good"])

    def test_method_fast(self, capsys):
        code, doc, _ = run_json(capsys, "good", "25", "--method", "fast", "--json")
        assert code == 0 and doc["output"]["method"] == "fast"

    def test_m_and_range_together_rejected(self, capsys):
        code, _, _ = run(capsys, "good", "5", "--range", "3", "9")
        assert code == 1

    def test_neither_m_nor_range_rejected(self, capsys):
        code, _, _ = run(capsys, "good")
        assert code == 1

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "good", "--range", "3", "99")
        assert code == 0 and "good numbers" in out

    def test_range_memory_does_not_grow_with_its_length(self, capsys):
        # kept for every modulus, the ~0.7 KiB reports alone would take ~3.3 MiB here
        tracemalloc.start()
        try:
            code = main(["good", "--range", "3", "5000", "--method", "fast"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "[3, 5000]" in capsys.readouterr().out
        assert peak < 2 * 2**20

    def test_route_disagreement_exits_4(self, capsys, monkeypatch):
        import fibmod.classify as classify_module

        # goodness_report runs the direct route's half-period test on the fast period
        monkeypatch.setattr(classify_module, "_half_period_is_negative_identity", lambda m, gamma: True)
        code, _, err = run(capsys, "good", "21", "--method", "both")
        assert code == 4
        assert "ANOMALY" in err


class TestWssScanCommand:
    def test_small_scan(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        code, doc, _ = run_json(
            capsys, "wss-scan", "--from", "2", "--to", "1000",
            "--checkpoint", str(ck), "--json",
        )
        assert code == 0
        assert doc["output"]["hits"] == []
        assert doc["output"]["anomaly_count"] == 0
        assert ck.exists()

    def test_singleton(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "wss-scan", "--from", "11", "--to", "11",
            "--checkpoint", str(tmp_path / "ck.json"), "--out", str(tmp_path / "r.jsonl"),
            "--json",
        )
        assert code == 0
        lines = (tmp_path / "r.jsonl").read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["p"] == 11

    def test_io_error_exit_code(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "wss-scan", "--from", "2", "--to", "100",
            "--checkpoint", str(tmp_path / "missing" / "ck.json"),
        )
        assert code == 2

    def test_corrupt_checkpoint_exit_code(self, capsys, tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text("{nope")
        code, _, err = run(
            capsys, "wss-scan", "--from", "2", "--to", "100", "--checkpoint", str(ck)
        )
        assert code == 2 and "checkpoint" in err

    def test_default_checkpoint_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FIBMOD_CHECKPOINT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "wss-scan", "--from", "2", "--to", "100")
        assert code == 0
        assert (tmp_path / "wss-scan-2-100.checkpoint.json").exists()

    def test_resume_from_partial_checkpoint(self, capsys, tmp_path):
        partial = tmp_path / "partial.json"
        interrupted_scan(2, 500, blocks=2, checkpoint_path=str(partial), block_size=100)
        code, doc, _ = run_json(
            capsys, "wss-scan", "--from", "2", "--to", "500",
            "--checkpoint", str(partial), "--block-size", "100", "--json",
        )
        assert code == 0 and doc["output"]["last_completed"] == 500

        fresh = tmp_path / "fresh.json"
        code, _, _ = run(
            capsys, "wss-scan", "--from", "2", "--to", "500",
            "--checkpoint", str(fresh), "--block-size", "100",
        )
        assert code == 0
        assert _normalized(partial) == _normalized(fresh)

    def test_checkpoint_in_use_exits_2_and_touches_nothing(self, capsys, tmp_path):
        ck, out = tmp_path / "ck.json", tmp_path / "res.jsonl"
        interrupted_scan(2, 500, blocks=2, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        before = ck.read_bytes(), out.read_bytes()
        argv = ("wss-scan", "--from", "2", "--to", "500", "--block-size", "100",
                "--checkpoint", str(ck), "--out", str(out))
        with open(f"{ck}.lock", "a") as other_scan:
            fcntl.flock(other_scan, fcntl.LOCK_EX | fcntl.LOCK_NB)
            code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err == f"fibmod: checkpoint error: checkpoint {ck} is in use by another scan\n"
        assert (ck.read_bytes(), out.read_bytes()) == before
        # once the other scan lets go, the same command resumes
        assert run(capsys, *argv)[0] == 0
        assert load_checkpoint(str(ck)).last_completed == 500

    def test_resume_without_its_results_file_exits_2_and_touches_nothing(self, capsys, tmp_path):
        ck, out = tmp_path / "ck.json", tmp_path / "res.jsonl"
        interrupted_scan(2, 500, blocks=2, checkpoint_path=str(ck), block_size=100)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        code, stdout, err = run(
            capsys, "wss-scan", "--from", "2", "--to", "500", "--block-size", "100",
            "--checkpoint", str(ck), "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err == (
            f"fibmod: checkpoint error: results file {out} is missing the lines "
            "up to the checkpoint's frontier 201\n"
        )
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_finished_scan_without_its_results_file_exits_2_and_touches_nothing(self, capsys, tmp_path):
        ck, out = tmp_path / "ck.json", tmp_path / "res.jsonl"
        code, _, err = run(capsys, "wss-scan", "--from", "2", "--to", "300", "--checkpoint", str(ck))
        assert code == 0, err
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        code, stdout, err = run(
            capsys, "wss-scan", "--from", "2", "--to", "300", "--checkpoint", str(ck), "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err == (
            f"fibmod: checkpoint error: results file {out} is missing the lines "
            "up to the checkpoint's frontier 300\n"
        )
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_workers_do_not_hold_the_lock(self, capsys, tmp_path, monkeypatch):
        # a worker orphaned by a killed scan would otherwise refuse every rerun
        ck = tmp_path / "ck.json"
        probe = functools.partial(_refuse_inherited_lock, f"{ck}.lock")
        monkeypatch.setattr(wss_module, "_scan_block", probe)
        code, _, err = run(
            capsys, "wss-scan", "--from", "2", "--to", "3000", "--block-size", "500",
            "--jobs", "2", "--checkpoint", str(ck),
        )
        assert code == 0, err

    def test_workers_die_with_a_killed_scan(self, tmp_path):
        pids_dir = tmp_path / "pids"
        pids_dir.mkdir()
        src = str(pathlib.Path(wss_module.__file__).parents[1])
        scan = subprocess.Popen(
            [sys.executable, "-c", _REPORTING_SCAN, str(pids_dir),
             "wss-scan", "--from", "2", "--to", "100000", "--block-size", "1000",
             "--jobs", "2", "--checkpoint", str(tmp_path / "ck.json")],
            env={"PYTHONPATH": src},
            stderr=subprocess.DEVNULL,
        )
        workers = []
        try:
            deadline = time.monotonic() + 30
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = [int(name) for name in os.listdir(pids_dir)]
            assert len(workers) == 2, workers
            scan.send_signal(signal.SIGKILL)
            scan.wait(timeout=10)
            deadline = time.monotonic() + 5
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            scan.kill()
            scan.wait(timeout=10)
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        assert sorted(int(name) for name in os.listdir(pids_dir)) == sorted(workers)

    def test_sigint_stops_the_scan_with_one_line(self, capsys, tmp_path, monkeypatch):
        pids_dir, blocks_dir = tmp_path / "pids", tmp_path / "blocks"
        pids_dir.mkdir()
        blocks_dir.mkdir()
        ck, out = tmp_path / "ck.json", tmp_path / "results.jsonl"
        argv = ["wss-scan", "--from", "2", "--to", "3001", "--block-size", "1000",
                "--jobs", "2", "--checkpoint", str(ck), "--out", str(out)]
        src = str(pathlib.Path(wss_module.__file__).parents[1])
        scan = subprocess.Popen(
            [sys.executable, "-c", _SLOW_SCAN, str(pids_dir), *argv],
            env={"PYTHONPATH": src},
            stderr=subprocess.PIPE,
            start_new_session=True,  # its own process group, as a shell job has
        )
        workers, done = [], 0
        try:
            deadline = time.monotonic() + 30
            while (len(workers) < 2 or done < 2001) and time.monotonic() < deadline:
                time.sleep(0.02)
                workers = [int(name) for name in os.listdir(pids_dir)]
                with contextlib.suppress(CheckpointError):
                    done = load_checkpoint(str(ck)).last_completed
            assert len(workers) == 2 and done == 2001, (workers, done)
            os.killpg(scan.pid, signal.SIGINT)  # Ctrl-C: the scan and both workers
            _, err = scan.communicate(timeout=30)
            assert scan.returncode == 130
            assert err.decode().splitlines() == ["fibmod: interrupted"]
            deadline = time.monotonic() + 5
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            scan.kill()
            scan.wait(timeout=10)
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        assert sorted(int(name) for name in os.listdir(pids_dir)) == sorted(workers)
        assert load_checkpoint(str(ck)).last_completed == 2001
        # the same command again resumes after the checkpointed blocks
        monkeypatch.setattr(wss_module, "_scan_block", functools.partial(_note_block, str(blocks_dir)))
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert [int(name) for name in os.listdir(blocks_dir)] == [2002]
        assert load_checkpoint(str(ck)).last_completed == 3001
        assert [json.loads(line)["p"] for line in out.read_text().splitlines()] == sieve_upto(3001)

    def test_hit_exit_code(self, capsys, tmp_path, monkeypatch):
        # force a synthetic hit so the dedicated exit code path is exercised
        import fibmod.wss as wss_module

        real_check = wss_module.wss_check

        def fake_check(p):
            record = real_check(p)
            if p == 11:
                import dataclasses

                record = dataclasses.replace(
                    record, residue_fib_index_mod_p2=0, is_wss=True, criteria_agree=False
                )
            return record

        monkeypatch.setattr(wss_module, "wss_check", fake_check)
        code, _, err = run(
            capsys, "wss-scan", "--from", "2", "--to", "20",
            "--checkpoint", str(tmp_path / "ck.json"),
        )
        assert code == 3
        assert "HIT" in err

    def test_anomaly_exit_code(self, capsys, tmp_path, monkeypatch):
        import fibmod.wss as wss_module

        real_check = wss_module.wss_check

        def fake_check(p):
            record = real_check(p)
            if p == 13:
                import dataclasses

                record = dataclasses.replace(record, criteria_agree=False)
            return record

        monkeypatch.setattr(wss_module, "wss_check", fake_check)
        code, _, err = run(
            capsys, "wss-scan", "--from", "2", "--to", "20",
            "--checkpoint", str(tmp_path / "ck.json"),
        )
        assert code == 4
        assert "anomal" in err


    def test_dead_worker_exits_2_and_rerun_resumes(self, capsys, tmp_path, monkeypatch):
        def scan(name):
            return run(
                capsys, "wss-scan", "--from", "2", "--to", "3000", "--block-size", "500",
                "--jobs", "2", "--checkpoint", str(tmp_path / f"{name}.json"),
                "--out", str(tmp_path / f"{name}.jsonl"),
            )

        monkeypatch.setattr(wss_module, "_scan_block", _die_after_two_blocks)
        code, out, err = scan("crashed")
        assert code == 2 and out == ""
        assert err.startswith("fibmod: worker process died: ")
        monkeypatch.undo()

        assert scan("crashed")[0] == 0
        assert scan("clean")[0] == 0
        assert _normalized(tmp_path / "crashed.json") == _normalized(tmp_path / "clean.json")
        assert (tmp_path / "crashed.jsonl").read_text() == (tmp_path / "clean.jsonl").read_text()


class TestVerifyCommand:
    def test_pisano_suite(self, capsys):
        code, doc, err = run_json(capsys, "verify", "--suite", "pisano", "--max", "300", "--json")
        assert code == 0
        assert doc["output"]["passed"] is True
        assert all(r["passed"] for r in doc["output"]["results"])
        assert "PASS" in err  # human lines go to stderr in json mode

    def test_human_lines_on_stdout_without_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identities", "--max", "200")
        assert code == 0
        assert "PASS" in out

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus")
        assert code == 1

    @pytest.mark.parametrize("suite", ["pisano", "all"])
    def test_max_below_two_is_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max", "1")
        assert code == 1
        assert out == ""
        assert err == "fibmod: error: max must be >= 2, got 1\n"

    def test_seed_reproducible(self, capsys):
        _, doc_a, _ = run_json(capsys, "verify", "--suite", "identities", "--max", "200",
                               "--seed", "7", "--json")
        _, doc_b, _ = run_json(capsys, "verify", "--suite", "identities", "--max", "200",
                               "--seed", "7", "--json")
        assert doc_a["output"]["results"] == doc_b["output"]["results"]


    @pytest.mark.parametrize("delay", ["0", "0.002"], ids=["busy-workers", "idle-workers"])
    def test_sigint_stops_verify_and_its_workers_with_one_line(self, tmp_path, delay):
        pids_dir = tmp_path / "pids"
        pids_dir.mkdir()
        src = str(pathlib.Path(wss_module.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", _REPORTING_VERIFY, str(pids_dir), delay,
             "verify", "--suite", "all", "--max", "20000"],
            env={"PYTHONPATH": src},
            stderr=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            start_new_session=True,  # its own process group, as a shell job has
        )
        # 313 chunks of moduli: one worker per usable CPU
        want = len(os.sched_getaffinity(0))
        workers = []
        try:
            deadline = time.monotonic() + 30
            while len(workers) < want and time.monotonic() < deadline:
                time.sleep(0.02)
                workers = [int(name) for name in os.listdir(pids_dir)]
            assert len(workers) == want, workers
            os.killpg(proc.pid, signal.SIGINT)  # Ctrl-C: verify and its workers
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 130
            assert err.decode().splitlines() == ["fibmod: interrupted"]
            deadline = time.monotonic() + 1
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert [pid for pid in workers if _alive(pid)] == []
        finally:
            proc.kill()
            proc.wait(timeout=10)
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        assert sorted(int(name) for name in os.listdir(pids_dir)) == sorted(workers)

    def test_dead_worker_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(pisano_module, "profile_direct", _die_past_m_1000)
        code, out, err = run(capsys, "verify", "--suite", "pisano", "--max", "2000")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("fibmod: worker process died: ")


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

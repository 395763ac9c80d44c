import json
import os
import re

import fibmod.wss as wss_module
from fibmod.cli import main

from helpers import fib_upto

_TEST_PID = os.getpid()
_real_scan_block = wss_module._scan_block


def _die_after_two_blocks(bounds):
    # stands in for wss._scan_block inside pool workers
    if os.getpid() == _TEST_PID:
        raise RuntimeError("expected to run in a worker process")
    if bounds[0] > 1000:
        os._exit(1)
    return _real_scan_block(bounds)


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

    def test_route_disagreement_exits_4(self, capsys, monkeypatch):
        import fibmod.classify as classify_module

        monkeypatch.setattr(classify_module, "is_good_direct", lambda m: True)
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
        from fibmod.wss import scan_wss

        partial = tmp_path / "partial.json"
        scan_wss(2, 500, checkpoint_path=str(partial), block_size=100, max_blocks=2)
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

    def test_seed_reproducible(self, capsys):
        _, doc_a, _ = run_json(capsys, "verify", "--suite", "identities", "--max", "200",
                               "--seed", "7", "--json")
        _, doc_b, _ = run_json(capsys, "verify", "--suite", "identities", "--max", "200",
                               "--seed", "7", "--json")
        assert doc_a["output"]["results"] == doc_b["output"]["results"]


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

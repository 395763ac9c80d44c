import concurrent.futures
import contextlib
import dataclasses
import errno
import json
import os
import re
import sys
import tracemalloc
from collections import Counter

import pytest

import fibmod.pisano as pisano_module
import fibmod.wss as wss_module
from fibmod import arith
from fibmod.arith import factorize, is_prime, sieve_upto, two_adic_split
from fibmod.errors import CheckpointError
from fibmod.fib import fib_pair_mod, matrix_pow_mod
from fibmod.pisano import pisano_fast, prime_period
from fibmod.wss import (
    ScanCheckpoint,
    WssRecord,
    cofactor_mod,
    enumerate_self_square,
    load_checkpoint,
    scan_wss,
    self_square_test,
    two_power_valuation_check,
    wss_check,
)

from helpers import CountingExecutor, fib_upto, interrupted_scan, primes_between


class TestLegendre5:
    """The legendre5 field of a WssRecord: chi = (p/5)."""

    @pytest.mark.parametrize("p,chi", [(5, 0), (11, 1), (7, -1), (2, -1), (19, 1)])
    def test_examples(self, p, chi):
        assert wss_check(p).legendre5 == chi

    def test_quadratic_residue_meaning(self):
        residues = {x * x % 5 for x in range(1, 5)}  # {1, 4}
        for p in sieve_upto(1000):
            if p == 5:
                continue
            assert wss_check(p).legendre5 == (1 if p % 5 in residues else -1)

    def test_composite_rejected(self):
        with pytest.raises(ValueError, match="15 is not prime"):
            wss_check(15)


class TestWssCheck:
    def test_eleven(self):
        record = wss_check(11)
        assert record.legendre5 == 1
        assert record.index == 10
        assert record.residue_fib_index_mod_p2 == 55  # u_10 = 55, not 0 mod 121
        assert record.residue_fib_gamma_mod_p2 == 55  # period(11) = 10
        assert not record.is_wss
        assert record.criteria_agree

    def test_five(self):
        record = wss_check(5)
        assert record.index == 5
        assert record.residue_fib_index_mod_p2 == 5  # u_5 = 5
        assert record.residue_fib_gamma_mod_p2 == 6765 % 25 == 15
        assert not record.is_wss
        assert record.criteria_agree

    def test_no_hits_below_20000(self):
        for p in sieve_upto(20000):
            record = wss_check(p)
            assert not record.is_wss, p
            assert record.criteria_agree, p

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            wss_check(49)


class TestSelfSquare:
    def test_known_divisible(self):
        record = self_square_test(6)
        assert record.gamma == 24 and record.divisible
        record = self_square_test(12)
        assert record.gamma == 24 and record.divisible
        assert 46368 % 144 == 0

    def test_five_not_divisible(self):
        record = self_square_test(5)
        assert record.residue_mod_m2 == 15 and not record.divisible

    def test_enumeration(self):
        assert [r.m for r in enumerate_self_square(12)] == [6, 12]
        assert enumerate_self_square(5) == []
        assert [r.m for r in enumerate_self_square(500)] == [6, 12]

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            self_square_test(1)


class TestCofactor:
    def test_unit_multiplier(self):
        for g, n_l in [(12, 9), (20, 25), (24, 36)]:
            assert cofactor_mod(1, g, n_l) == 1 % n_l

    def test_example(self):
        # u_24 / u_12 = 46368 / 144 = 322
        assert cofactor_mod(2, 12, 9) == 322 % 9 == 7

    def test_matches_exact_quotient(self):
        fib = fib_upto(1200)
        for a, g in [(2, 12), (3, 12), (5, 12), (2, 24), (4, 20), (7, 8), (10, 6)]:
            assert fib[a * g] % fib[g] == 0
            quotient = fib[a * g] // fib[g]
            for n_l in (9, 25, 49, 343, 10**9 + 7):
                assert cofactor_mod(a, g, n_l) == quotient % n_l, (a, g, n_l)

    def test_product_recovers_numerator(self):
        for n in (2, 3, 5, 7):
            g = pisano_fast(n * n)
            for a in (1, 2, 3, 9, 20):
                for mod in (n * n, 997):
                    lhs = cofactor_mod(a, g, mod) * fib_pair_mod(g, mod)[0] % mod
                    assert lhs == fib_pair_mod(a * g, mod)[0]

    def test_divisibility_forces_multiplier(self):
        # n^l | cofactor  =>  n^l | a, exhaustively for small parameters
        for n in range(2, 8):
            for k in (1, 2):
                g = pisano_fast(n**k)
                for l in range(1, k + 1):
                    n_l = n**l
                    for a in range(1, 201):
                        if cofactor_mod(a, g, n_l) == 0:
                            assert a % n_l == 0, (n, k, l, a)

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ValueError):
            cofactor_mod(0, 12, 9)


class TestTwoPowerValuation:
    @pytest.mark.parametrize("k,valuation", [(1, 1), (2, 3), (5, 6)])
    def test_examples(self, k, valuation):
        assert two_power_valuation_check(k) == (valuation, True)

    def test_matches_exact_valuation(self):
        fib = fib_upto(3 * 2**11)
        for k in range(1, 13):
            value = fib[3 * 2 ** (k - 1)]
            assert two_power_valuation_check(k) == (
                two_adic_split(value)[0],
                value % (1 << (2 * k)) != 0,
            )

    def test_is_k_plus_1_up_to_30(self):
        for k in range(2, 31):
            valuation, ok = two_power_valuation_check(k)
            assert valuation == k + 1 and ok, k

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            two_power_valuation_check(0)


class TestOddSelfSquare:
    """No odd m is self-square: m^2 does not divide u_{period(m)}, nor p^2e
    u_{period(p^e)} for any p^e exactly dividing m."""

    @pytest.mark.parametrize("m", [5, 15, 25])
    def test_examples(self, m):
        assert not self_square_test(m).divisible
        for p, e in factorize(m):
            assert not self_square_test(p**e).divisible, (m, p, e)

    def test_fifteen_details(self):
        record = self_square_test(15)
        assert record.gamma == 40
        assert record.residue_mod_m2 == fib_upto(40)[40] % 225 != 0

    def test_range(self):
        for m in range(3, 1000, 2):
            assert not self_square_test(m).divisible, m


def _normalized(path):
    text = path.read_text()
    return re.sub(r'"wall_time_seconds": [0-9.eE+-]+', '"wall_time_seconds": 0', text)


class _Crash(Exception):
    pass


def _record_fsync_and_replace(monkeypatch) -> list[tuple[str, int]]:
    """Log ("fsync", inode), ("link", inode) and ("replace", inode of the source)
    as they happen."""
    calls = []
    real_fsync, real_link, real_replace = os.fsync, os.link, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def link(src, dst):
        calls.append(("link", os.stat(src).st_ino))
        real_link(src, dst)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "link", link)
    monkeypatch.setattr(os, "replace", replace)
    return calls


def _record_last_links_dropped(monkeypatch) -> list[int]:
    """Log the inode whose last name an os.replace is about to unlink, which
    frees it, and with it its disk blocks."""
    dropped = []
    real_replace = os.replace

    def replace(src, dst):
        with contextlib.suppress(FileNotFoundError):
            if os.stat(dst).st_nlink == 1:
                dropped.append(os.stat(dst).st_ino)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return dropped


def _crash_in_third_write(monkeypatch, steps_done):
    """Make the third checkpoint write raise _Crash once it has taken steps_done
    of its link, replace and replace steps: steps_done = 0 raises between its
    steps 1 and 2, 3 between its steps 4 and 5."""
    real_write, real_link, real_replace = wss_module._write_checkpoint, os.link, os.replace
    writes, taken = [], []

    def step(real):
        def run(*args):
            if len(taken) == steps_done:
                raise _Crash
            real(*args)
            taken.append(real)
            if len(taken) == steps_done:
                raise _Crash
        return run

    def write(path, checkpoint):
        writes.append(checkpoint)
        if len(writes) == 3:
            monkeypatch.setattr(os, "link", step(real_link))
            monkeypatch.setattr(os, "replace", step(real_replace))
        real_write(path, checkpoint)

    monkeypatch.setattr(wss_module, "_write_checkpoint", write)


def _assert_same_as_an_uninterrupted_scan(tmp_path, ck, out):
    """ck and out hold [2, 500] in blocks of 100 byte for byte (modulo wall
    time), and the scans left no other file behind."""
    clean_ck = tmp_path / "clean.json"
    clean_out = tmp_path / "clean.jsonl"
    scan_wss(2, 500, checkpoint_path=str(clean_ck), results_path=str(clean_out), block_size=100)
    assert _normalized(ck) == _normalized(clean_ck)
    assert out.read_bytes() == clean_out.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        [ck.name, f"{ck.name}.lock", out.name, "clean.json", "clean.json.lock", "clean.jsonl"]
    )


class TestScan:
    def test_singleton_range(self, tmp_path):
        ck = scan_wss(11, 11, checkpoint_path=str(tmp_path / "ck.json"))
        assert ck.last_completed == 11
        assert ck.hits == ()
        assert ck.anomaly_count == 0

    def test_small_range_no_hits(self, tmp_path):
        ck = scan_wss(2, 1000, checkpoint_path=str(tmp_path / "ck.json"))
        assert ck.hits == () and ck.anomaly_count == 0
        assert ck.last_completed == 1000

    def test_results_file_schema(self, tmp_path):
        out = tmp_path / "results.jsonl"
        scan_wss(2, 50, checkpoint_path=str(tmp_path / "ck.json"), results_path=str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == len(sieve_upto(50))
        for line in lines:
            record = json.loads(line)
            assert list(record) == ["p", "legendre5", "index", "residue", "is_wss"]
        assert json.loads(lines[4]) == {
            "p": 11,
            "legendre5": 1,
            "index": 10,
            "residue": 55,
            "is_wss": False,
        }

    def test_checkpoint_roundtrip(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = scan_wss(2, 300, checkpoint_path=str(path), block_size=100)
        loaded = load_checkpoint(str(path))
        assert loaded == ck
        payload = json.loads(path.read_text())
        assert sorted(payload) == [
            "anomaly_count",
            "hits",
            "last_completed",
            "range_hi",
            "range_lo",
            "wall_time_seconds",
        ]

    def test_checkpoint_fields_and_hits_must_have_their_types(self, tmp_path):
        # a bool is no int, and a hit is an is_wss record inside the scanned range
        path = tmp_path / "ck.json"
        scan_wss(2, 300, checkpoint_path=str(path), block_size=100)
        good = json.loads(path.read_text())
        hit = {"p": 11, "legendre5": 1, "index": 10, "residue_fib_index_mod_p2": 0,
               "residue_fib_gamma_mod_p2": 0, "is_wss": True, "criteria_agree": True}
        path.write_text(json.dumps({**good, "hits": [hit], "wall_time_seconds": 3}))
        assert load_checkpoint(str(path)).hits == (WssRecord(**hit),)
        bad = [{**good, field: True} for field in ("range_lo", "range_hi", "last_completed",
                                                    "anomaly_count", "wall_time_seconds")]
        bad += [{**good, "hits": [{**hit, field: value}]} for field, value in (
            ("p", "x"), ("p", True), ("legendre5", 1.0), ("index", None),
            ("residue_fib_index_mod_p2", "0"), ("residue_fib_gamma_mod_p2", False),
            ("is_wss", "yes"), ("is_wss", 1), ("criteria_agree", 0),
            ("is_wss", False), ("p", 1), ("p", 301),
        )]
        bad += [{**good, "hits": [hit], "last_completed": 10},
                {**good, "hits": [{**hit, "extra": 1}]}, {**good, "hits": [[11]]}]
        # hits no scan could have written: repeated or out of p order, at a
        # non-prime, or with fields that do not follow from p and the residues
        hit29 = {**hit, "p": 29, "index": 28}
        bad += [{**good, "hits": hits} for hits in ([hit, hit], [hit29, hit], [hit, hit29, hit29])]
        bad += [{**good, "hits": [{**hit, **change}]} for change in (
            {"p": 9, "index": 8}, {"index": 99}, {"legendre5": -1, "index": 12},
            {"legendre5": 0, "index": 11}, {"criteria_agree": False},
            {"residue_fib_gamma_mod_p2": 5}, {"residue_fib_index_mod_p2": 5},
        )]
        # a p past is_prime's domain is malformed too, not a ValueError
        beyond = {**hit, "p": 2**64 + 1, "legendre5": -1, "index": 2**64 + 2}
        bad.append({**good, "range_hi": 2**65, "last_completed": 2**65, "hits": [beyond]})
        for doc in bad:
            path.write_text(json.dumps(doc))
            with pytest.raises(CheckpointError, match="invalid field|malformed hit records"):
                load_checkpoint(str(path))

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ScanCheckpoint)])
    def test_each_checkpoint_field_must_be_there_with_its_json_kind(self, tmp_path, field):
        path = tmp_path / "ck.json"
        scan_wss(2, 300, checkpoint_path=str(path), block_size=100)
        good = json.loads(path.read_text())
        # a bool where an int belongs, a string, and a list (or, for hits, a number) in place of the value
        wrong = [True, "1", 1 if field == "hits" else [1]]
        docs = [{k: v for k, v in good.items() if k != field}] + [{**good, field: value} for value in wrong]
        for doc in docs:
            path.write_text(json.dumps(doc))
            with pytest.raises(CheckpointError, match=f"missing or invalid field '{field}'$"):
                load_checkpoint(str(path))

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(WssRecord)])
    def test_each_hit_field_must_be_there_with_its_json_kind(self, tmp_path, field):
        path = tmp_path / "ck.json"
        scan_wss(2, 300, checkpoint_path=str(path), block_size=100)
        hit = {"p": 11, "legendre5": 1, "index": 10, "residue_fib_index_mod_p2": 0,
               "residue_fib_gamma_mod_p2": 0, "is_wss": True, "criteria_agree": True}
        good = {**json.loads(path.read_text()), "hits": [hit]}
        path.write_text(json.dumps(good))
        assert load_checkpoint(str(path)).hits == (WssRecord(**hit),)
        # a bool is the wrong kind for every int field, and an int for every bool field
        wrong = [1 if isinstance(hit[field], bool) else True, str(hit[field]), [hit[field]]]
        hits = [{k: v for k, v in hit.items() if k != field}] + [{**hit, field: value} for value in wrong]
        for bad in hits:
            path.write_text(json.dumps({**good, "hits": [bad]}))
            with pytest.raises(CheckpointError, match="malformed hit records$"):
                load_checkpoint(str(path))

    def test_checkpoint_counts_and_times_must_be_finite_and_not_negative(self, tmp_path):
        path = tmp_path / "ck.json"
        scan_wss(2, 300, checkpoint_path=str(path), block_size=100)
        good = json.loads(path.read_text())
        for field, value in (("anomaly_count", 0), ("wall_time_seconds", 0), ("wall_time_seconds", 0.0)):
            path.write_text(json.dumps({**good, field: value}))
            assert getattr(load_checkpoint(str(path)), field) == 0
        for field, value in (
            ("anomaly_count", -1), ("wall_time_seconds", -5.0), ("wall_time_seconds", -1),
            ("wall_time_seconds", float("nan")), ("wall_time_seconds", float("inf")),
        ):
            path.write_text(json.dumps({**good, field: value}))
            with pytest.raises(CheckpointError, match="negative or non-finite"):
                load_checkpoint(str(path))

    def test_resume_matches_uninterrupted(self, tmp_path):
        base = tmp_path / "full.json"
        scan_wss(2, 2000, checkpoint_path=str(base), block_size=250)

        resumed = tmp_path / "resumed.json"
        partial = interrupted_scan(2, 2000, blocks=3, checkpoint_path=str(resumed), block_size=250)
        assert partial.last_completed == 751
        final = scan_wss(2, 2000, checkpoint_path=str(resumed), block_size=250)
        assert final.last_completed == 2000
        assert _normalized(base) == _normalized(resumed)

    def test_worker_count_invariance(self, tmp_path):
        one = tmp_path / "w1.json"
        two = tmp_path / "w2.json"
        scan_wss(2, 2000, workers=1, checkpoint_path=str(one), block_size=300)
        scan_wss(2, 2000, workers=2, checkpoint_path=str(two), block_size=300)
        assert _normalized(one) == _normalized(two)

    def test_resume_trims_results(self, tmp_path):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        interrupted_scan(2, 500, blocks=2, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        # fake an orphan line past the checkpointed frontier (crash between
        # results append and checkpoint write)
        with out.open("a") as fh:
            fh.write('{"p": 211, "legendre5": 1, "index": 210, "residue": 1, "is_wss": false}\n')
        scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out))

        clean_out = tmp_path / "clean.jsonl"
        scan_wss(2, 500, checkpoint_path=str(tmp_path / "c2.json"), results_path=str(clean_out))
        assert out.read_text() == clean_out.read_text()

    def test_corrupt_results_line_refuses_resume(self, tmp_path):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        interrupted_scan(2, 500, blocks=2, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        lines = out.read_text().splitlines(keepends=True)
        lines[3] = "{not json\n"
        out.write_text("".join(lines))
        with pytest.raises(CheckpointError, match="line 4"):
            scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out))
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "ck.json", "ck.json.lock", "res.jsonl"
        ]

    def test_torn_last_line_resumes_cleanly(self, tmp_path):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        interrupted_scan(2, 500, blocks=2, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        # a crash part-way through appending the next block's first line
        with out.open("a") as fh:
            fh.write('{"p": 211, "legendre5": 1, "ind')
        scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out))

        clean_out = tmp_path / "clean.jsonl"
        scan_wss(2, 500, checkpoint_path=str(tmp_path / "c2.json"), results_path=str(clean_out))
        assert out.read_bytes() == clean_out.read_bytes()

    def test_resume_refuses_a_missing_results_file(self, tmp_path):
        # a new file would lack every line up to the checkpoint's frontier
        ck = tmp_path / "ck.json"
        interrupted_scan(2, 500, blocks=2, checkpoint_path=str(ck), block_size=100)
        before = ck.read_bytes()
        out = tmp_path / "res.jsonl"
        with pytest.raises(CheckpointError, match="res.jsonl is missing the lines up to .* 201"):
            scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        assert ck.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["ck.json", "ck.json.lock"]

    def test_a_finished_scan_refuses_a_missing_results_file(self, tmp_path):
        # a complete checkpoint returns at once, but not without its results
        ck = tmp_path / "ck.json"
        scan_wss(2, 300, checkpoint_path=str(ck))
        before = ck.read_bytes()
        out = tmp_path / "res.jsonl"
        with pytest.raises(CheckpointError, match="res.jsonl is missing the lines up to .* 300$"):
            scan_wss(2, 300, checkpoint_path=str(ck), results_path=str(out))
        assert ck.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["ck.json", "ck.json.lock"]

    @pytest.mark.parametrize("kept", ["first-3", "first-3-and-orphans"])
    def test_a_resume_refuses_a_results_file_that_lost_its_tail(self, tmp_path, kept):
        # a valid crash state at 200, but the lines of 7 ... 199 are gone
        ck, out = tmp_path / "ck.json", tmp_path / "res.jsonl"
        scan_wss(2, 300, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        ck.write_text(json.dumps({**json.loads(ck.read_text()), "last_completed": 200}))
        lines = out.read_bytes().splitlines(keepends=True)
        # orphans past the frontier show that the refusal comes before any cut
        orphans = [line for line in lines if json.loads(line)["p"] > 200] if kept.endswith("orphans") else []
        out.write_bytes(b"".join(lines[:3] + orphans))
        before = ck.read_bytes(), out.read_bytes()
        with pytest.raises(CheckpointError, match="res.jsonl is missing the lines up to .* 200$"):
            scan_wss(2, 300, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        assert (ck.read_bytes(), out.read_bytes()) == before

    @pytest.mark.parametrize("cut", ["emptied", "first-3", "torn-last-line"])
    def test_a_finished_scan_refuses_a_results_file_that_lost_its_tail(self, tmp_path, cut):
        ck, out = tmp_path / "ck.json", tmp_path / "res.jsonl"
        scan_wss(2, 300, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        data = out.read_bytes()
        out.write_bytes({"emptied": b"", "first-3": b"".join(data.splitlines(keepends=True)[:3]),
                         "torn-last-line": data[:-5]}[cut])
        before = ck.read_bytes(), out.read_bytes()
        with pytest.raises(CheckpointError, match="res.jsonl is missing the lines up to .* 300$"):
            scan_wss(2, 300, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        assert (ck.read_bytes(), out.read_bytes()) == before

    def test_a_range_with_no_prime_up_to_its_frontier_keeps_an_empty_file(self, tmp_path):
        # [24, 28] holds no prime: its results file is rightly empty
        ck, out = tmp_path / "ck.json", tmp_path / "res.jsonl"
        partial = interrupted_scan(24, 28, blocks=1, checkpoint_path=str(ck), results_path=str(out),
                                   block_size=2)
        assert partial.last_completed == 25 and out.read_bytes() == b""
        done = scan_wss(24, 28, checkpoint_path=str(ck), results_path=str(out), block_size=2)
        assert done.last_completed == 28 and out.read_bytes() == b""
        assert scan_wss(24, 28, checkpoint_path=str(ck), results_path=str(out), block_size=2) == done
        assert out.read_bytes() == b""

    def test_a_finished_scan_reruns_with_no_pool_and_leaves_its_files_alone(self, tmp_path, monkeypatch):
        ck, out = tmp_path / "ck.json", tmp_path / "res.jsonl"
        first = scan_wss(2, 300, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        before = ck.read_bytes(), out.read_bytes()
        monkeypatch.setattr(CountingExecutor, "pools", 0)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingExecutor)
        again = scan_wss(2, 300, workers=2, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        assert CountingExecutor.pools == 0
        assert (ck.read_bytes(), out.read_bytes()) == before
        assert again == first

    def test_out_of_domain_range_rejected_up_front(self, tmp_path):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        with pytest.raises(ValueError, match=r"^hi = 18446744073709551616 is out of range: need hi < 2\^64$"):
            scan_wss(2**64 - 10, 2**64, checkpoint_path=str(ck), results_path=str(out))
        assert list(tmp_path.iterdir()) == []

    def test_scans_the_last_primes_below_2_64(self, tmp_path):
        # a chi = -1 bound 2 * (p + 1) passes 2^64; the scan factors only p + 1
        out = tmp_path / "res.jsonl"
        ck = scan_wss(2**64 - 100, 2**64 - 1, checkpoint_path=str(tmp_path / "ck.json"),
                      results_path=str(out))
        assert (ck.last_completed, ck.hits, ck.anomaly_count) == (2**64 - 1, (), 0)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [2**64 - r["p"] for r in records] == [95, 83, 59]
        for r in records:
            assert r["residue"] == matrix_pow_mod(r["index"], r["p"] ** 2).u_cur != 0, r
            assert not r["is_wss"]

    def test_fresh_scan_starts_results_empty(self, tmp_path):
        out = tmp_path / "res.jsonl"
        scan_wss(2, 100, checkpoint_path=str(tmp_path / "c1.json"), results_path=str(out))
        scan_wss(2, 100, checkpoint_path=str(tmp_path / "c2.json"), results_path=str(out))
        assert len(out.read_text().splitlines()) == len(sieve_upto(100)) == 25

    def test_blocks_are_made_lazily(self, tmp_path):
        # a list of every block of [2, 300000] would hold 3e5 tuples
        tracemalloc.start()
        try:
            ck = str(tmp_path / "ck.json")
            interrupted_scan(2, 300_000, blocks=1, checkpoint_path=ck, block_size=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_blocks_in_flight_are_bounded(self, tmp_path, monkeypatch):
        serial = tmp_path / "serial.json"
        scan_wss(2, 3000, checkpoint_path=str(serial), block_size=100)
        monkeypatch.setattr(CountingExecutor, "peak", 0)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingExecutor)
        pooled = tmp_path / "pooled.json"
        scan_wss(2, 3000, workers=2, checkpoint_path=str(pooled), block_size=100)
        assert 0 < CountingExecutor.peak <= 4  # 2 x workers, of 30 blocks
        assert _normalized(pooled) == _normalized(serial)

    def test_a_pool_starts_no_more_workers_than_blocks(self, tmp_path, monkeypatch):
        # a forked pool starts every worker it is given at its first submit
        monkeypatch.setattr(CountingExecutor, "max_workers", 0)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingExecutor)
        scan_wss(2, 300, workers=64, checkpoint_path=str(tmp_path / "ck.json"), block_size=100)
        assert CountingExecutor.max_workers == 3

    def test_results_and_checkpoint_fsynced_before_replace(self, tmp_path, monkeypatch):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        calls = _record_fsync_and_replace(monkeypatch)
        dropped = _record_last_links_dropped(monkeypatch)
        scan_wss(2, 300, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        results = out.stat().st_ino
        directory = tmp_path.stat().st_ino
        assert dropped == []  # no block's rename frees an inode
        assert len(calls) == 4 + 6 + 6  # three blocks
        # the first block: the results reach the disk, then the new checkpoint,
        # then it is renamed in, then the directory that records the rename
        fsync_results, fsync_first, rename, fsync_dir = calls[:4]
        assert fsync_results == ("fsync", results)
        assert fsync_first[0] == "fsync" and fsync_first[1] not in (results, directory)
        assert rename == ("replace", fsync_first[1])
        assert fsync_dir == ("fsync", directory)
        # every later block writes the spare, links the live checkpoint to .old,
        # renames the spare in, and makes the old checkpoint the next spare
        spare, live = calls[5][1], fsync_first[1]
        for block in (1, 2):
            assert calls[4 + 6 * (block - 1) : 10 + 6 * (block - 1)] == [
                ("fsync", results),
                ("fsync", spare),
                ("link", live),
                ("replace", spare),
                ("replace", live),
                ("fsync", directory),
            ]
            spare, live = live, spare
        assert live == ck.stat().st_ino
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "ck.json", "ck.json.lock", "res.jsonl"
        ]

    def test_trimmed_results_cut_in_place_then_fsynced(self, tmp_path, monkeypatch):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        interrupted_scan(2, 300, blocks=1, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        kept, results = out.stat().st_size, out.stat().st_ino
        # a line past the frontier (101), then a torn one: the resume cuts both
        with out.open("a") as fh:
            fh.write('{"p": 103, "legendre5": -1, "index": 104, "residue": 1, "is_wss": false}\n')
            fh.write('{"p": 107, "legendre5": -1, "ind')
        calls = _record_fsync_and_replace(monkeypatch)
        logged_fsync, seen = os.fsync, []

        def fsync(fd):
            seen.append((os.fstat(fd).st_size, sorted(path.name for path in tmp_path.iterdir())))
            logged_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        interrupted_scan(2, 300, blocks=1, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        # the cut reaches the disk on the results file's own inode, before the
        # block appends to it: no copy, no rename, no other file
        assert calls[:2] == [("fsync", results), ("fsync", results)]
        assert seen[0] == (kept, ["ck.json", "ck.json.lock", "res.jsonl"])
        assert seen[1][0] > kept
        assert out.stat().st_ino == results

    def test_crash_between_results_and_checkpoint_resumes_cleanly(self, tmp_path, monkeypatch):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        real_write = wss_module._write_checkpoint
        written = []

        def crash_on_third_block(path, checkpoint):
            if len(written) == 2:
                raise _Crash
            written.append(checkpoint)
            real_write(path, checkpoint)

        monkeypatch.setattr(wss_module, "_write_checkpoint", crash_on_third_block)
        with pytest.raises(_Crash):
            scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        monkeypatch.undo()
        assert load_checkpoint(str(ck)).last_completed == 201
        assert json.loads(out.read_text().splitlines()[-1])["p"] > 201  # orphaned lines
        scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out), block_size=100)

        clean_ck = tmp_path / "clean.json"
        clean_out = tmp_path / "clean.jsonl"
        scan_wss(2, 500, checkpoint_path=str(clean_ck), results_path=str(clean_out), block_size=100)
        assert _normalized(ck) == _normalized(clean_ck)
        assert out.read_bytes() == clean_out.read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["ck.json", "ck.json.lock", "res.jsonl", "clean.json", "clean.json.lock", "clean.jsonl"]
        )

    @pytest.mark.parametrize("steps_done", [0, 1, 2, 3], ids=["1-2", "2-3", "3-4", "4-5"])
    def test_crash_inside_checkpoint_write_resumes_cleanly(self, tmp_path, monkeypatch, steps_done):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        _crash_in_third_write(monkeypatch, steps_done)
        with pytest.raises(_Crash):
            scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        monkeypatch.undo()
        # the live name holds a whole checkpoint, the new one once step 3 renamed it in
        assert load_checkpoint(str(ck)).last_completed == (301 if steps_done >= 2 else 201)
        scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        _assert_same_as_an_uninterrupted_scan(tmp_path, ck, out)

    def test_stale_spare_and_old_are_reused_or_removed(self, tmp_path):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        interrupted_scan(2, 500, blocks=2, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        # what a killed scan can leave: a spare longer than any checkpoint, and .old
        (tmp_path / "ck.json.tmp").write_text("x" * 10_000)
        (tmp_path / "ck.json.old").write_text("{not json")
        scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        _assert_same_as_an_uninterrupted_scan(tmp_path, ck, out)

    def test_without_hard_links_the_plain_rename_writes_the_same_bytes(self, tmp_path, monkeypatch):
        def no_link(src, dst):
            raise OSError(errno.EPERM, "hard links not supported", src)

        monkeypatch.setattr(os, "link", no_link)
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out), block_size=100)
        monkeypatch.undo()
        _assert_same_as_an_uninterrupted_scan(tmp_path, ck, out)

    def test_completed_scan_is_idempotent(self, tmp_path):
        path = tmp_path / "ck.json"
        first = scan_wss(2, 300, checkpoint_path=str(path))
        again = scan_wss(2, 300, checkpoint_path=str(path))
        assert again == first

    def test_corrupt_checkpoint_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            scan_wss(2, 100, checkpoint_path=str(path))

    def test_missing_field_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"range_lo": 2, "range_hi": 100}))
        with pytest.raises(CheckpointError):
            scan_wss(2, 100, checkpoint_path=str(path))

    def test_range_mismatch_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        scan_wss(2, 100, checkpoint_path=str(path))
        with pytest.raises(CheckpointError):
            scan_wss(2, 200, checkpoint_path=str(path))

    def test_invalid_bounds_rejected(self, tmp_path):
        ck = str(tmp_path / "ck.json")
        with pytest.raises(ValueError):
            scan_wss(1, 10, checkpoint_path=ck)
        with pytest.raises(ValueError):
            scan_wss(10, 2, checkpoint_path=ck)
        with pytest.raises(ValueError):
            scan_wss(2, 10, workers=0, checkpoint_path=ck)
        assert list(tmp_path.iterdir()) == []


def _scan_proofs(monkeypatch, tmp_path, lo, hi):
    """The primes a scan of [lo, hi] records, and the strong tests it runs on
    each number, by number."""
    proofs = Counter()
    real = arith._strong_test

    def counting(n, bases):
        proofs[n] += 1
        return real(n, bases)

    monkeypatch.setattr(arith, "_strong_test", counting)
    prime_period.cache_clear()  # so that the gate runs for every prime
    out = tmp_path / "results.jsonl"
    scan_wss(lo, hi, checkpoint_path=str(tmp_path / "ck.json"), results_path=str(out))
    return [json.loads(line)["p"] for line in out.read_text().splitlines()], proofs


class TestScanProvesEachPrimeOnce:
    """The sieve's proof of a scanned prime serves prime_period's gate too."""

    def test_a_scanned_prime_is_proved_once(self, monkeypatch, tmp_path):
        # above (2**20 + 1)**2 the window's survivors need is_prime, once each
        lo, hi = 2**41, 2**41 + 3 * 10**4 - 1
        primes = [n for n in range(lo, hi + 1) if is_prime(n)]
        scanned, proofs = _scan_proofs(monkeypatch, tmp_path, lo, hi)
        assert scanned == primes
        assert {p: proofs[p] for p in scanned} == dict.fromkeys(scanned, 1)
        # the rest reject composite survivors and prove the large factors of each period bound
        assert sum(proofs.values()) < 2 * len(scanned)

    def test_below_the_proven_square_the_sieve_alone_proves_each_scanned_prime(self, monkeypatch, tmp_path):
        # every prime up to isqrt(hi) strikes the window, so no scanned prime is tested
        lo, hi = 10**12, 10**12 + 3 * 10**4 - 1
        scanned, proofs = _scan_proofs(monkeypatch, tmp_path, lo, hi)
        assert scanned == primes_between(lo, hi)
        assert [p for p in scanned if proofs[p]] == []
        # what is proved are the strike pass's large cofactors of the period bounds
        assert all(n > 2**36 for n in proofs) and sum(proofs.values()) < len(scanned) / 2

    def test_a_scan_block_leaves_no_proof_behind(self, tmp_path):
        store = pisano_module._BLOCK_STORE
        store.update(dict.fromkeys(primes_between(10**9, 10**9 + 999), ((), None)))
        hi, records = wss_module._scan_block(next(wss_module._blocks(10**12, 10**12 + 2000, 2001)))
        assert [r.p for r in records] == primes_between(10**12, 10**12 + 2000)
        assert pisano_module._BLOCK_STORE is store and store == {}
        scan_wss(10**12, 10**12 + 2000, checkpoint_path=str(tmp_path / "ck.json"))
        assert pisano_module._BLOCK_STORE is store and store == {}
        # nor does a block whose check raises
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wss_module, "wss_check", lambda p: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                wss_module._scan_block((10**12, 10**12 + 2000, primes_between(10**12, 10**12 + 2000)))
        assert pisano_module._BLOCK_STORE is store and store == {}

    def test_the_period_gate_takes_a_block_prime_as_proven(self, monkeypatch):
        # prime_period calls is_prime only for a p outside the block store
        calls = []
        real = pisano_module.is_prime
        monkeypatch.setattr(pisano_module, "is_prime", lambda n: calls.append(n) or real(n))
        prime_period.cache_clear()
        try:
            block = next(wss_module._blocks(10**9, 10**9 + 9999, 10**4))
            hi, records = wss_module._scan_block(block)
            assert [r.p for r in records] == block[2] == primes_between(10**9, 10**9 + 9999)
            assert calls == []
            # a prime outside the block meets the gate, once
            assert prime_period(999_999_937) == pisano_fast(999_999_937)
            assert calls == [999_999_937]
        finally:
            prime_period.cache_clear()

    def test_each_block_fills_and_empties_the_one_store(self, tmp_path, monkeypatch):
        # wss_check sees its block's primes, and nothing else, in the same store;
        # after each block, and after the scan, the store is empty
        store = pisano_module._BLOCK_STORE
        real_scan_block = wss_module._scan_block
        blocks = []

        def scan_block(bounds):
            seen = []
            real_check = wss_module.wss_check
            wss_module.wss_check = lambda p: seen.append((pisano_module._BLOCK_STORE is store, set(store))) or real_check(p)
            try:
                scanned = real_scan_block(bounds)
            finally:
                wss_module.wss_check = real_check
            blocks.append((bounds, seen, pisano_module._BLOCK_STORE is store, dict(store)))
            return scanned

        monkeypatch.setattr(wss_module, "_scan_block", scan_block)
        lo, hi = 10**9, 10**9 + 3999
        scan_wss(lo, hi, checkpoint_path=str(tmp_path / "ck.json"),
                 results_path=str(tmp_path / "res.jsonl"), block_size=1000)
        assert [block[:2] for block, *_ in blocks] == [(s, s + 999) for s in range(lo, hi, 1000)]
        for (b_lo, b_hi, b_primes), seen, same, after in blocks:
            assert b_primes == primes_between(b_lo, b_hi)
            primes = set(b_primes)
            assert seen == [(True, primes)] * len(primes)
            assert same and after == {}
        assert pisano_module._BLOCK_STORE is store and store == {}

    def test_the_scan_rebinds_no_module_global(self, tmp_path):
        # the benchmark's traced run requires every fibmod binding back as it was
        def bindings():
            modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fibmod"]
            return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}

        before = bindings()
        scan_wss(10**12, 10**12 + 2000, checkpoint_path=str(tmp_path / "ck.json"))
        after = bindings()
        assert after.keys() == before.keys()
        assert [key for key, value in before.items() if after[key] is not value] == []


def _fields(record):
    return {
        "p": record.p,
        "legendre5": record.legendre5,
        "index": record.index,
        "residue": record.residue_fib_index_mod_p2,
        "is_wss": record.is_wss,
    }


class TestResultLine:
    @pytest.mark.parametrize("p", [11, 7, 5, 10**12 + 39], ids=["chi+1", "chi-1", "chi0", "1e12"])
    @pytest.mark.parametrize("is_wss", [False, True])
    def test_the_line_is_json_dumps_of_its_fields(self, p, is_wss):
        record = dataclasses.replace(wss_check(p), is_wss=is_wss)
        assert wss_module._result_line(record) == json.dumps(_fields(record))


def _reference_lines(lo, hi):
    """The results file of a scan of [lo, hi], built prime by prime apart
    from any scan: the primes from a full sieve, each record from wss_check
    with a cold prime_period, so each bound is factored by factorize."""
    prime_period.cache_clear()
    return "".join(json.dumps(_fields(wss_check(p))) + "\n" for p in primes_between(lo, hi))


# ranges: block sizes, one dividing min(isqrt(hi), 2**20) and one not, so that
# a window is exactly that wide or wider; at 1e12 and above, the range end
# caps the window
_WINDOWED_RANGES = {
    (2, 30000): (173, 100, 10**4),
    (10**7, 10**7 + 19999): (633, 1000),
    (10**9, 10**9 + 99999): (7906, 10**4),
    (10**12, 10**12 + 19999): (10**4, 3001),
    ((2**20 + 1) ** 2 - 10**4, (2**20 + 1) ** 2 + 9999): (5000, 3001),
    (2**40 - 10**4, 2**40 + 9999): (5000, 3001),
}


class TestWindowedScan:
    """A scan sieves a window of whole blocks at a time; its output is the
    prime-by-prime reference, whatever the block size."""

    def test_blocks_per_window(self):
        assert wss_module._window_blocks(10**7 + 10**5, 10**4) == 1
        assert wss_module._window_blocks(10**9 + 10**5, 10**4) == 4
        assert wss_module._window_blocks(10**12 + 10**5, 10**4) == 100
        assert wss_module._window_blocks(2**63, 10**4) == 105
        # one byte per odd number: a window's flags never exceed 2**20 bytes
        for size in (1, 7, 10**4, 2**19 + 1, 2**20 - 1, 2**20):
            span = wss_module._window_blocks(2**63, size) * size
            assert span >= 2**20 and (span + 1) // 2 <= 2**20, size

    @pytest.mark.parametrize("lo,hi,size,per_window", [
        (10**7, 10**7 + 10**5 - 1, 10**4, 1),
        (10**9, 10**9 + 10**5 - 1, 10**4, 4),
        (10**9 + 5, 10**9 + 10**5 + 4, 7906, 4),
        (10**12, 10**12 + 10**5 - 1, 10**4, 100),
    ])
    def test_blocks_come_from_windows_of_whole_blocks(self, monkeypatch, lo, hi, size, per_window):
        windows = []
        real = wss_module._prime_window
        monkeypatch.setattr(wss_module, "_prime_window", lambda a, b: windows.append((a, b)) or real(a, b))
        blocks = list(wss_module._blocks(lo, hi, size))
        assert [b[:2] for b in blocks] == [(s, min(s + size - 1, hi)) for s in range(lo, hi + 1, size)]
        span = per_window * size
        assert windows == [(w, min(w + span - 1, hi)) for w in range(lo, hi + 1, span)]
        if hi < 10**12:
            assert [p for b in blocks for p in b[2]] == primes_between(lo, hi)

    @pytest.mark.parametrize(
        "lo,hi", list(_WINDOWED_RANGES), ids=["2", "1e7", "1e9", "1e12", "proven-square", "2^40"]
    )
    def test_results_and_checkpoint_match_the_prime_by_prime_reference(self, tmp_path, lo, hi):
        want = _reference_lines(lo, hi)
        checkpoints = set()
        for i, size in enumerate(_WINDOWED_RANGES[lo, hi]):
            workers = 1 + i % 2
            ck, out = tmp_path / f"ck{size}.json", tmp_path / f"res{size}.jsonl"
            got = scan_wss(lo, hi, workers, checkpoint_path=str(ck), results_path=str(out), block_size=size)
            assert out.read_text() == want, size
            assert got == ScanCheckpoint(lo, hi, hi, (), 0, got.wall_time_seconds)
            assert load_checkpoint(str(ck)) == got
            checkpoints.add(_normalized(ck))
        assert len(checkpoints) == 1

    def test_a_pooled_scan_sieves_in_the_main_process(self, tmp_path, monkeypatch):
        scan_pid = os.getpid()
        real = wss_module._prime_window

        def sieve_in_the_scan(lo, hi):
            assert os.getpid() == scan_pid
            return real(lo, hi)

        monkeypatch.setattr(wss_module, "_prime_window", sieve_in_the_scan)
        lo, hi = 10**9, 10**9 + 59999
        out = tmp_path / "res.jsonl"
        scan_wss(lo, hi, 2, checkpoint_path=str(tmp_path / "ck.json"), results_path=str(out))
        assert [json.loads(line)["p"] for line in out.read_text().splitlines()] == primes_between(lo, hi)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_resume_from_inside_a_window_is_byte_identical(self, tmp_path, workers):
        # windows of four blocks: [lo, lo + 4e4) and [lo + 4e4, hi]
        lo, hi = 10**9, 10**9 + 59999
        ck, out = tmp_path / "ck.json", tmp_path / "res.jsonl"
        scan_wss(lo, hi, workers, checkpoint_path=str(ck), results_path=str(out))
        for cut in (2, 5):
            part_ck, part_out = tmp_path / f"ck{cut}.json", tmp_path / f"res{cut}.jsonl"
            partial = interrupted_scan(lo, hi, blocks=cut, workers=workers,
                                       checkpoint_path=str(part_ck), results_path=str(part_out))
            assert partial.last_completed == lo + cut * 10**4 - 1
            scan_wss(lo, hi, workers, checkpoint_path=str(part_ck), results_path=str(part_out))
            assert part_out.read_bytes() == out.read_bytes(), cut
            assert _normalized(part_ck) == _normalized(ck), cut

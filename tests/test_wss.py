import contextlib
import errno
import json
import os
import re
import sys
import tracemalloc
from collections import Counter

import pytest

import fibmod.pool as pool_module
import fibmod.wss as wss_module
from fibmod import arith
from fibmod.arith import factorize, sieve_upto, two_adic_split
from fibmod.errors import CheckpointError
from fibmod.fib import fib_pair_mod
from fibmod.pisano import pisano_fast, prime_period
from fibmod.wss import (
    cofactor_mod,
    enumerate_self_square,
    load_checkpoint,
    odd_self_square_check,
    scan_wss,
    self_square_test,
    two_power_valuation_check,
    wss_check,
)

from helpers import CountingExecutor, factorize_calls, fib_upto, interrupted_scan, primes_between


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
    @pytest.mark.parametrize("m", [5, 15, 25])
    def test_examples(self, m):
        report = odd_self_square_check(m)
        assert report.ok
        assert all(flag for _, _, flag in report.prime_power_ok)

    def test_fifteen_details(self):
        report = odd_self_square_check(15)
        assert report.gamma == 40
        assert report.residue_mod_m2 == fib_upto(40)[40] % 225 != 0

    def test_range(self):
        for m in range(3, 1000, 2):
            assert odd_self_square_check(m).ok, m

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            odd_self_square_check(6)

    def test_factors_each_modulus_once_and_no_prime_power(self):
        with factorize_calls() as calls:
            for m in range(3, 2001, 2):
                calls.clear()
                report = odd_self_square_check(m)
                assert calls.count(m) == 1, (m, calls)
                powers = {p**e for p, e in factorize(m)} - {m}
                assert not powers & set(calls), (m, calls)
                record = self_square_test(m)
                assert (report.gamma, report.residue_mod_m2) == (record.gamma, record.residue_mod_m2)


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

    def test_out_of_domain_range_rejected_up_front(self, tmp_path):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        with pytest.raises(ValueError, match="out of range"):
            scan_wss(2**63, 2**63 + 100, checkpoint_path=str(ck), results_path=str(out))
        assert list(tmp_path.iterdir()) == []

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
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", CountingExecutor)
        pooled = tmp_path / "pooled.json"
        scan_wss(2, 3000, workers=2, checkpoint_path=str(pooled), block_size=100)
        assert 0 < CountingExecutor.peak <= 4  # 2 x workers, of 30 blocks
        assert _normalized(pooled) == _normalized(serial)

    def test_a_pool_starts_no_more_workers_than_blocks(self, tmp_path, monkeypatch):
        # a forked pool starts every worker it is given at its first submit
        monkeypatch.setattr(CountingExecutor, "max_workers", 0)
        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", CountingExecutor)
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


class TestScanProvesEachPrimeOnce:
    """The sieve's proof of a scanned prime serves prime_period's gate too."""

    def test_a_scanned_prime_is_proved_once(self, monkeypatch, tmp_path):
        proofs = Counter()
        real = arith._strong_test

        def counting(n, bases):
            passed = real(n, bases)
            proofs[n] += passed
            return passed

        monkeypatch.setattr(arith, "_strong_test", counting)
        prime_period.cache_clear()  # so that the gate runs for every prime
        lo, hi = 10**12, 10**12 + 3 * 10**4 - 1  # three blocks narrower than isqrt(hi)
        out = tmp_path / "results.jsonl"
        scan_wss(lo, hi, checkpoint_path=str(tmp_path / "ck.json"), results_path=str(out))
        scanned = [json.loads(line)["p"] for line in out.read_text().splitlines()]
        assert scanned == primes_between(lo, hi)
        assert {p: proofs[p] for p in scanned} == dict.fromkeys(scanned, 1)
        # the rest prove the large factors of each period bound p - chi
        assert sum(proofs.values()) < 2 * len(scanned)

    def test_a_scan_block_leaves_no_proof_behind(self, tmp_path):
        store = arith._BLOCK_STORE
        store.update(dict.fromkeys(primes_between(10**9, 10**9 + 999), ((), None)))
        hi, records = wss_module._scan_block((10**12, 10**12 + 2000))
        assert [r.p for r in records] == primes_between(10**12, 10**12 + 2000)
        assert arith._BLOCK_STORE is store and store == {}
        scan_wss(10**12, 10**12 + 2000, checkpoint_path=str(tmp_path / "ck.json"))
        assert arith._BLOCK_STORE is store and store == {}
        # nor does a block whose check raises
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wss_module, "wss_check", lambda p: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                wss_module._scan_block((10**12, 10**12 + 2000))
        assert arith._BLOCK_STORE is store and store == {}

    def test_each_block_fills_and_empties_the_one_store(self, tmp_path, monkeypatch):
        # wss_check sees its block's primes, and nothing else, in the same store;
        # after each block, and after the scan, the store is empty
        store = arith._BLOCK_STORE
        real_scan_block = wss_module._scan_block
        blocks = []

        def scan_block(bounds):
            seen = []
            real_check = wss_module.wss_check
            wss_module.wss_check = lambda p: seen.append((arith._BLOCK_STORE is store, set(store))) or real_check(p)
            try:
                scanned = real_scan_block(bounds)
            finally:
                wss_module.wss_check = real_check
            blocks.append((bounds, seen, arith._BLOCK_STORE is store, dict(store)))
            return scanned

        monkeypatch.setattr(wss_module, "_scan_block", scan_block)
        lo, hi = 10**9, 10**9 + 3999
        scan_wss(lo, hi, checkpoint_path=str(tmp_path / "ck.json"),
                 results_path=str(tmp_path / "res.jsonl"), block_size=1000)
        assert [bounds for bounds, *_ in blocks] == [(s, s + 999) for s in range(lo, hi, 1000)]
        for (b_lo, b_hi), seen, same, after in blocks:
            primes = set(primes_between(b_lo, b_hi))
            assert seen == [(True, primes)] * len(primes)
            assert same and after == {}
        assert arith._BLOCK_STORE is store and store == {}

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

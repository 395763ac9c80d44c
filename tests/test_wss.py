import json
import re

import pytest

from fibmod.arith import sieve_upto, two_adic_split
from fibmod.errors import CheckpointError
from fibmod.fib import fib_pair_mod
from fibmod.pisano import pisano_fast
from fibmod.wss import (
    cofactor_mod,
    enumerate_self_square,
    legendre5,
    load_checkpoint,
    odd_self_square_check,
    scan_wss,
    self_square_test,
    two_power_valuation_check,
    wss_check,
)

from helpers import fib_upto


class TestLegendre5:
    @pytest.mark.parametrize("p,chi", [(5, 0), (11, 1), (7, -1), (2, -1), (19, 1)])
    def test_examples(self, p, chi):
        assert legendre5(p) == chi

    def test_quadratic_residue_meaning(self):
        residues = {x * x % 5 for x in range(1, 5)}  # {1, 4}
        for p in sieve_upto(1000):
            if p == 5:
                continue
            assert legendre5(p) == (1 if p % 5 in residues else -1)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            legendre5(15)


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


def _normalized(path):
    text = path.read_text()
    return re.sub(r'"wall_time_seconds": [0-9.eE+-]+', '"wall_time_seconds": 0', text)


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
        scan_wss(2, 50, results_path=str(out))
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
        partial = scan_wss(2, 2000, checkpoint_path=str(resumed), block_size=250, max_blocks=3)
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
        scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out), block_size=100, max_blocks=2)
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
        scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out), block_size=100, max_blocks=2)
        lines = out.read_text().splitlines(keepends=True)
        lines[3] = "{not json\n"
        out.write_text("".join(lines))
        with pytest.raises(CheckpointError, match="line 4"):
            scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out))
        assert sorted(path.name for path in tmp_path.iterdir()) == ["ck.json", "res.jsonl"]

    def test_torn_last_line_resumes_cleanly(self, tmp_path):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out), block_size=100, max_blocks=2)
        # a crash part-way through appending the next block's first line
        with out.open("a") as fh:
            fh.write('{"p": 211, "legendre5": 1, "ind')
        scan_wss(2, 500, checkpoint_path=str(ck), results_path=str(out))

        clean_out = tmp_path / "clean.jsonl"
        scan_wss(2, 500, checkpoint_path=str(tmp_path / "c2.json"), results_path=str(clean_out))
        assert out.read_bytes() == clean_out.read_bytes()

    def test_out_of_domain_range_rejected_up_front(self, tmp_path):
        ck = tmp_path / "ck.json"
        out = tmp_path / "res.jsonl"
        with pytest.raises(ValueError, match="out of range"):
            scan_wss(2**63, 2**63 + 100, checkpoint_path=str(ck), results_path=str(out))
        assert list(tmp_path.iterdir()) == []

    def test_fresh_scan_starts_results_empty(self, tmp_path):
        out = tmp_path / "res.jsonl"
        scan_wss(2, 100, results_path=str(out))
        scan_wss(2, 100, results_path=str(out))
        assert len(out.read_text().splitlines()) == len(sieve_upto(100)) == 25

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

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            scan_wss(1, 10)
        with pytest.raises(ValueError):
            scan_wss(10, 2)
        with pytest.raises(ValueError):
            scan_wss(2, 10, workers=0)

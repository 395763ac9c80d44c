"""Acceptance suite: every headline guarantee, one criterion per test.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them
live).  Ranges and tolerances are pinned here; every comparison is exact.
"""

import random
import re
import time
from contextlib import contextmanager

from fibmod.arith import factorize, sieve_upto
from fibmod.classify import is_good_direct, is_good_fast, is_good_prime, zero_count_odd
from fibmod.fib import binomial_expansion_rhs, doubling_rhs, fib_exact, subtraction_rhs
from fibmod.pisano import pisano_direct, pisano_fast, profile, zero_count, zero_count_direct
from fibmod.wss import (
    cofactor_mod,
    enumerate_self_square,
    scan_wss,
    two_power_valuation_check,
)

from helpers import fib_upto, interrupted_scan


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:2d} PASS {description} [{elapsed:.1f}s]")


def test_criterion_01_golden_values():
    with criterion(1, "golden values: periods of 2/5/6/12, u_24, divisibilities"):
        assert pisano_direct(2) == pisano_fast(2) == 3
        assert pisano_direct(5) == pisano_fast(5) == 20
        assert pisano_direct(6) == pisano_fast(6) == 24
        assert pisano_direct(12) == pisano_fast(12) == 24
        assert fib_exact(24) == 46368
        assert 46368 % 144 == 0
        assert fib_exact(20) == 6765 and 6765 % 25 != 0


def test_criterion_02_fast_period_equals_direct():
    with criterion(2, "fast period == direct period for every m in [2, 10^4]"):
        started = time.perf_counter()
        for m in range(2, 10_001):
            assert pisano_fast(m) == pisano_direct(m), m
        assert time.perf_counter() - started < 60


def test_criterion_03_period_rank_zero_count_structure():
    with criterion(3, "period = zeros * rank, zeros in {1,2,4}; prime-power zero counts"):
        for m in range(2, 10_001):
            prof = profile(m)
            assert prof.gamma == prof.upsilon * prof.alpha, m
            assert prof.upsilon in (1, 2, 4), m
        for p in sieve_upto(499):
            if p == 2:
                continue
            base = zero_count(p)
            for e in (2, 3):
                if p**e <= 10**6:
                    assert zero_count(p**e) == base, (p, e)
        assert zero_count(2) == 1 and zero_count(4) == 1
        for e in range(3, 13):
            assert zero_count(2**e) == 2, e


def test_criterion_04_identity_suite():
    with criterion(4, "doubling/subtraction/binomial identities on >= 10^3 sampled tuples"):
        rng = random.Random(20260811)
        fib = fib_upto(3100)
        moduli = [2, 3, 5, 6, 7, 10, 12, 36, 97, 144, 999983, 10**9 + 7]
        samples = 0
        for _ in range(400):
            n = rng.randrange(1, 1500)
            m = rng.choice(moduli)
            assert doubling_rhs(n, m) == fib[2 * n] % m, (n, m)
            samples += 1
        for _ in range(400):
            m_idx = rng.randrange(0, 1500)
            n_idx = rng.randrange(0, m_idx + 1)
            mod = rng.choice(moduli)
            assert subtraction_rhs(m_idx, n_idx, mod) == fib[m_idx - n_idx] % mod
            samples += 1
        for _ in range(300):
            k = rng.randrange(1, 61)
            n = rng.randrange(1, 13)
            mod = rng.choice(moduli)
            assert binomial_expansion_rhs(k, n, mod) == fib[k * n] % mod
            samples += 1
        assert samples >= 1000


def test_criterion_05_goodness_equivalence():
    with criterion(5, "fast goodness == direct for odd m <= 10^4; even never good; prime powers"):
        for m in range(3, 10_001, 2):
            assert is_good_fast(m).is_good == is_good_direct(m), m
        for m in range(2, 2001, 2):
            assert not is_good_direct(m), m
        for p in sieve_upto(10_000):
            if p == 2:
                continue
            e = 1
            while p**e <= 10_000:
                assert is_good_direct(p**e) == is_good_prime(p), (p, e)
                e += 1


def test_criterion_06_zero_count_patterns_and_good_structure():
    with criterion(6, "zero-count/period patterns for odd p < 10^4; good-number zero counts"):
        from fibmod.classify import zero_count_period_pattern

        for p in sieve_upto(9_999):
            if p == 2:
                continue
            zero_count_period_pattern(p)  # raises AnomalyError on violation
        for m in range(3, 10_001, 2):
            report = is_good_fast(m)
            if not report.is_good:
                continue
            counts = {entry.upsilon_p for entry in report.prime_entries}
            assert len(counts) == 1, m
            assert report.upsilon_m == report.prime_entries[0].upsilon_p, m
        for m in range(3, 10_001, 2):
            entries = is_good_fast(m).prime_entries
            if all(entry.upsilon_p == 4 for entry in entries):
                assert is_good_direct(m), m


def test_criterion_07_odd_composite_zero_count_formulas():
    with criterion(7, "odd-composite zero count: case formula == rank-lattice == scan"):
        for m in range(3, 10_001, 2):
            factors = factorize(m)
            if len(factors) == 1 and factors[0][1] == 1:
                continue  # prime, not composite
            # zero_count_odd raises AnomalyError if its two formulas disagree
            assert zero_count_odd(m) == zero_count_direct(m), m


def test_criterion_08_wss_scan_to_one_million(tmp_path):
    with criterion(8, "no Wall-Sun-Sun primes and no criterion anomalies below 10^6"):
        started = time.perf_counter()
        ck = scan_wss(
            2,
            1_000_000,
            workers=4,
            checkpoint_path=str(tmp_path / "wss-1e6.json"),
        )
        assert ck.last_completed == 1_000_000
        assert ck.hits == ()
        assert ck.anomaly_count == 0
        assert time.perf_counter() - started < 300


def test_criterion_09_self_square_enumeration(tmp_path):
    with criterion(9, "self-square moduli up to 10^4 are exactly {6, 12}"):
        started = time.perf_counter()
        assert [r.m for r in enumerate_self_square(10_000)] == [6, 12]
        assert time.perf_counter() - started < 60


def test_criterion_10_two_power_valuations():
    with criterion(10, "valuation of u at two-power periods is k+1; squares never divide"):
        for k in range(1, 31):
            valuation, ok = two_power_valuation_check(k)
            assert ok, k
            if k >= 2:
                assert valuation == k + 1, k
        assert two_power_valuation_check(1)[0] == 1


def test_criterion_11_cofactor_divisibility_exhaustive():
    with criterion(11, "cofactor divisibility forces the multiplier (exhaustive small range)"):
        from fibmod.pisano import pisano_fast as period

        for n in range(2, 8):
            for k in (1, 2):
                g = period(n**k)
                for l in range(1, k + 1):
                    n_l = n**l
                    for a in range(1, 201):
                        if cofactor_mod(a, g, n_l) == 0:
                            assert a % n_l == 0, (n, k, l, a)


def _normalized(path):
    return re.sub(r'"wall_time_seconds": [0-9.eE+-]+', '"wall_time_seconds": 0', path.read_text())


def test_criterion_12_scan_determinism(tmp_path):
    with criterion(12, "interrupted+resumed scan of [2, 10^5] is byte-identical, any workers"):
        rng = random.Random(12)
        reference = tmp_path / "reference.json"
        scan_wss(2, 100_000, workers=1, checkpoint_path=str(reference))

        for workers in (1, 2):
            path = tmp_path / f"resumed-w{workers}.json"
            cut = rng.randint(1, 9)  # blocks before the "interruption"
            partial = interrupted_scan(
                2, 100_000, blocks=cut, workers=workers, checkpoint_path=str(path)
            )
            assert partial.last_completed < 100_000
            scan_wss(2, 100_000, workers=workers, checkpoint_path=str(path))
            assert _normalized(path) == _normalized(reference), workers

        uninterrupted = tmp_path / "w2.json"
        scan_wss(2, 100_000, workers=2, checkpoint_path=str(uninterrupted))
        assert _normalized(uninterrupted) == _normalized(reference)

from dataclasses import asdict

import pytest

from fibmod.arith import factorize, sieve_upto, two_adic_split
from fibmod.classify import (
    GoodnessReport,
    GoodPrimeEntry,
    goodness_report,
    is_good_direct,
    is_good_fast,
    is_good_prime,
    period_divisor_class,
    zero_count_odd,
    zero_count_period_pattern,
)
from fibmod.pisano import (
    _prime_zero_count,
    lifting_exponent,
    prime_period,
    profile,
    zero_count,
    zero_count_direct,
)

from helpers import factorize_calls, period_bound, zero_scan

ODD_PRIMES = [p for p in sieve_upto(3000) if p != 2]


class TestIsGoodDirect:
    @pytest.mark.parametrize("m,good", [(2, False), (5, True), (11, False), (9, True)])
    def test_examples(self, m, good):
        assert is_good_direct(m) is good

    def test_even_never_good(self):
        for m in range(2, 600, 2):
            assert not is_good_direct(m)

    def test_even_exclusion_is_definitional(self):
        # For these even m the raw half-period matrix *is* -Id
        # (-Id collapses to Id mod 2); the classifier must still say no.
        from fibmod.fib import matrix_pow_mod
        from fibmod.pisano import pisano_fast

        for m in (6, 10, 14):
            assert matrix_pow_mod(pisano_fast(m) // 2, m).is_negative_identity
            assert not is_good_direct(m)

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            is_good_direct(1)


class TestIsGoodPrime:
    @pytest.mark.parametrize("p,good", [(3, True), (5, True), (11, False), (7, True)])
    def test_examples(self, p, good):
        assert is_good_prime(p) is good
        assert prime_period(p) % 4 == (0 if good else 2)

    def test_agrees_with_direct(self):
        for p in ODD_PRIMES:
            assert is_good_prime(p) == is_good_direct(p), p

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            is_good_prime(2)
        with pytest.raises(ValueError):
            is_good_prime(15)


class TestIsGoodFast:
    def test_even_not_good(self):
        report = is_good_fast(6)
        assert not report.is_good and not report.is_odd

    def test_mismatched_two_parts_not_good(self):
        # periods 8 and 16 have 2-adic valuations 3 and 4
        report = is_good_fast(21)
        assert [e.gamma_p for e in report.prime_entries] == [8, 16]
        assert [e.two_adic for e in report.prime_entries] == [3, 4]
        assert all(e.good_prime for e in report.prime_entries)
        assert not report.is_good

    def test_good_semiprimes_exist_and_match_direct(self):
        found = []
        for p in ODD_PRIMES:
            for q in ODD_PRIMES:
                if q <= p or p * q > 10**4:
                    continue
                if not (is_good_prime(p) and is_good_prime(q)):
                    continue
                if two_adic_split(prime_period(p))[0] != two_adic_split(prime_period(q))[0]:
                    continue
                m = p * q
                assert is_good_fast(m).is_good
                assert is_good_direct(m)
                found.append(m)
        assert found  # the criterion is not vacuous

    def test_matches_direct_on_odd_range(self):
        for m in range(3, 1500, 2):
            assert is_good_fast(m).is_good == is_good_direct(m), m

    def test_report_fields(self):
        report = is_good_fast(15)
        assert report.m == 15 and report.is_odd
        assert report.gamma == 40
        assert report.method == "fast"
        assert report.upsilon_m == zero_count(15)
        assert [e.p for e in report.prime_entries] == [3, 5]


class TestGoodnessReport:
    def test_both_methods_agree(self):
        report = goodness_report(45, method="both")
        assert report.method == "both"
        assert report.is_good == is_good_direct(45)

    def test_direct_method(self):
        assert goodness_report(5, method="direct").is_good

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            goodness_report(5, method="magic")

    def test_factors_each_modulus_once_and_no_prime_factor(self):
        # from 21 on: 6 and 20 are the bounds prime_period factors for p = 2 and 5
        moduli = [*range(21, 1000), *range(2_000_000, 2_000_300)]
        with factorize_calls() as calls:
            for m in moduli:
                calls.clear()
                goodness_report(m, "both")
                assert calls.count(m) == 1, (m, calls)
                # a prime m is factored once, as m; no other prime factor is factored
                assert not {p for p, _ in factorize(m) if p != m} & set(calls), (m, calls)

    @pytest.mark.parametrize("method", ["fast", "direct", "both"])
    def test_equals_the_report_built_from_public_pieces(self, method):
        for m in [*range(2, 3001), *range(2_000_000, 2_000_300)]:
            assert asdict(goodness_report(m, method)) == _report_from_public_pieces(m, method), m


def _report_from_public_pieces(m, method):
    """goodness_report(m, method) as a dict, from a full profile per prime
    factor, profile(m) and is_good_direct(m)."""
    entries = []
    for p, e in factorize(m):
        prof = profile(p)
        entries.append(GoodPrimeEntry(
            p=p, e=e, gamma_p=prof.gamma, two_adic=two_adic_split(prof.gamma)[0],
            good_prime=(p != 2 and prof.gamma % 4 == 0), upsilon_p=prof.upsilon,
        ))
    is_odd = m % 2 == 1
    fast = (is_odd and all(entry.good_prime for entry in entries)
            and len({entry.two_adic for entry in entries}) == 1)
    direct = is_good_direct(m)
    assert fast == direct, m
    prof = profile(m)
    return asdict(GoodnessReport(
        m=m, is_odd=is_odd, gamma=prof.gamma, prime_entries=tuple(entries),
        is_good=fast if method == "fast" else direct, upsilon_m=prof.upsilon, method=method,
    ))


class TestZeroCountOdd:
    @pytest.mark.parametrize("m,count", [(25, 4), (33, 2), (55, 2)])
    def test_examples(self, m, count):
        assert zero_count_odd(m) == count

    def test_matches_scan(self):
        for m in range(3, 1500, 2):
            assert zero_count_odd(m) == zero_count_direct(m) == zero_scan(m), m

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            zero_count_odd(6)

    def test_factors_each_modulus_once_and_no_prime_power(self):
        for memo in (prime_period, lifting_exponent, _prime_zero_count):
            memo.cache_clear()
        met = set()  # the primes whose period is memoized
        with factorize_calls() as calls:
            for m in range(2_000_001, 2_001_000, 2):
                primes = [p for p, _ in factorize(m)]
                calls.clear()
                zero_count_odd(m)
                # m once, and prime_period the odd part of the period bound
                # of each new prime, where that part is not 1: no prime power
                new = [two_adic_split(period_bound(p))[1] for p in primes if p not in met]
                assert sorted(calls) == sorted([m] + [odd for odd in new if odd > 1]), (m, calls)
                met.update(primes)


class TestPeriodDivisorClass:
    @pytest.mark.parametrize("p,cls", [(11, "P1"), (3, "P2"), (7, "P2"), (2, "P2")])
    def test_examples(self, p, cls):
        assert period_divisor_class(p) == cls

    def test_division_facts(self):
        assert (11 - 1) % prime_period(11) == 0
        assert 2 * (3 + 1) % prime_period(3) == 0
        assert 2 * (7 + 1) % prime_period(7) == 0

    def test_never_neither(self):
        # overlap ("both") is recorded, not asserted absent; "neither" would
        # break the covering property and fails hard
        both = []
        for p in sieve_upto(10_000):
            if p == 5:
                continue
            cls = period_divisor_class(p)
            assert cls != "neither", p
            if cls == "both":
                both.append(p)
        if both:
            print(f"period divisor class overlap at: {both}")

    def test_five_excluded(self):
        with pytest.raises(ValueError):
            period_divisor_class(5)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            period_divisor_class(9)


class TestZeroCountPeriodPattern:
    @pytest.mark.parametrize(
        "p,pattern",
        [(11, "v1_pattern"), (3, "v2_pattern"), (5, "v4_pattern")],
    )
    def test_examples(self, p, pattern):
        assert zero_count_period_pattern(p) == pattern

    def test_holds_for_all_small_odd_primes(self):
        for p in ODD_PRIMES:
            pattern = zero_count_period_pattern(p)
            upsilon = zero_count(p)
            k = two_adic_split(prime_period(p))[0]
            if pattern == "v1_pattern":
                assert upsilon == 1 and k == 1
            elif pattern == "v2_pattern":
                assert upsilon == 2 and k >= 3
            else:
                assert upsilon == 4 and k == 2

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            zero_count_period_pattern(2)


class TestGoodNumberStructure:
    def test_zero_counts_agree_on_good_numbers(self):
        for m in range(3, 3000, 2):
            report = is_good_fast(m)
            if not report.is_good:
                continue
            counts = {e.upsilon_p for e in report.prime_entries}
            assert len(counts) == 1, m
            assert report.upsilon_m == report.prime_entries[0].upsilon_p, m

    def test_all_four_counts_force_good(self):
        for m in range(3, 3000, 2):
            entries = is_good_fast(m).prime_entries
            if all(e.upsilon_p == 4 for e in entries):
                assert is_good_direct(m), m

    def test_prime_power_goodness_tracks_prime(self):
        for p in ODD_PRIMES:
            e = 1
            while p**e <= 3000:
                assert is_good_direct(p**e) == is_good_prime(p), (p, e)
                e += 1

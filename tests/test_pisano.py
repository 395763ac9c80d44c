import contextlib
import math
import random
from collections import Counter
from unittest import mock

import pytest

import fibmod.pisano as pisano_module
import fibmod.wss as wss_module
from fibmod import arith
from fibmod.arith import factorize, is_prime, primes_in_range, sieve_upto, two_adic_split
from fibmod.classify import (
    goodness_report,
    is_good_direct,
    is_good_prime,
    period_divisor_class,
    zero_count_period_pattern,
)
from fibmod.errors import AnomalyError
from fibmod.fib import fib_pair_mod, matrix_pow_mod
from fibmod.pisano import (
    PisanoProfile,
    lifting_exponent,
    pisano_direct,
    pisano_fast,
    prime_period,
    prime_power_period,
    profile,
    profile_direct,
    profiles_direct,
    rank_of_apparition,
    zero_count,
    zero_count_direct,
)
from fibmod.wss import self_square_test, wss_check

from helpers import (
    binding_calls,
    bound_odd_primes,
    factorize_calls,
    fib_upto,
    ladder_prime_period,
    module_state,
    odd_prime_tests,
    period_bound,
    pisano_scan,
    primes_between,
    rank_scan,
    route_pows,
    zero_scan,
)

# chi = +1 primes p = 1 mod 8 whose p - 1 has a large 2-part, for Tonelli-Shanks
_LARGE_TWO_PARTS = {5767169: 19, 104857601: 22, 469762049: 26}


def _refuse(*args):
    raise AssertionError("the direct route called a fast one")


class TestPisanoDirect:
    @pytest.mark.parametrize("m,period", [(2, 3), (5, 20), (7, 16), (10, 60)])
    def test_examples(self, m, period):
        assert pisano_direct(m) == period

    def test_matches_scan_oracle(self):
        for m in range(2, 400):
            assert pisano_direct(m) == pisano_scan(m)
        with pytest.raises(ValueError, match="^modulus must be >= 2, got 1$"):
            pisano_direct(1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="^modulus must be >= 2, got 0$"):
            pisano_direct(0)


class TestProfileDirect:
    def test_matches_scan_oracles(self):
        for m in range(2, 3000):
            prof = profile_direct(m)
            assert (prof.gamma, prof.alpha, prof.upsilon) == (
                pisano_scan(m), rank_scan(m), zero_scan(m)
            ), m
        with pytest.raises(ValueError, match="^modulus must be >= 2, got 1$"):
            profile_direct(1)

    def test_matches_scan_oracles_at_the_top_of_verify_range(self):
        for m in range(9900, 10001):
            prof = profile_direct(m)
            assert (prof.gamma, prof.alpha, prof.upsilon) == (
                pisano_scan(m), rank_scan(m), zero_scan(m)
            ), m

    @pytest.mark.parametrize("m, want", [
        (10, (60, 15, 4)), (50, (300, 75, 4)), (250, (1500, 375, 4)), (1250, (7500, 1875, 4)),
    ])
    def test_period_at_the_exact_bound(self, m, want):
        # m = 2 * 5^k has period 6m, the scan's limit: the return is its last term
        prof = profile_direct(m)
        assert (prof.gamma, prof.alpha, prof.upsilon) == want
        assert want == (pisano_scan(m), rank_scan(m), zero_scan(m))

    def test_period_past_the_bound_is_an_anomaly(self, monkeypatch):
        monkeypatch.setattr(pisano_module, "_PERIOD_BOUND_FACTOR", 5)
        with pytest.raises(AnomalyError, match="no period found for m=10 within 50 steps"):
            profile_direct(10)
        assert profile_direct(7).gamma == 16
        # returns one and two terms past the limit, on either half of a pass
        monkeypatch.setattr(pisano_module, "_PERIOD_BOUND_FACTOR", 1)
        with pytest.raises(AnomalyError, match="no period found for m=2 within 2 steps"):
            profile_direct(2)
        monkeypatch.setattr(pisano_module, "_PERIOD_BOUND_FACTOR", 2)
        with pytest.raises(AnomalyError, match="no period found for m=3 within 6 steps"):
            profile_direct(3)
        assert profile_direct(2).gamma == 3

    @pytest.mark.parametrize("m, want", [
        (1, ValueError("modulus must be >= 2, got 1")),  # no scan below 2
        (2, (3, 3, 1)),  # zero and return on the first sum of a pass
        (3, (8, 4, 2)),  # both on the second
        (5, (20, 5, 4)),  # first zero on the first sum, return on the second
        (11, (10, 10, 1)),
        (13, (28, 7, 4)),
    ])
    def test_zeros_and_returns_in_both_halves_of_a_pass(self, m, want):
        if isinstance(want, ValueError):
            with pytest.raises(ValueError) as info:
                profile_direct(m)
            assert str(info.value) == str(want)
            return
        prof = profile_direct(m)
        assert (prof.m, prof.gamma, prof.alpha, prof.upsilon) == (m, *want)

    def test_views_reach_no_fast_route(self):
        with contextlib.ExitStack() as stack:
            for name in ("pisano_fast", "factorize", "fib_pair_mod"):
                stack.enter_context(mock.patch.object(pisano_module, name, _refuse))
            for m in range(2, 500):
                assert pisano_direct(m) == pisano_scan(m), m
                assert zero_count_direct(m) == zero_scan(m), m

    def test_rejects_bad_moduli(self):
        with pytest.raises(ValueError, match="^modulus must be >= 2, got 0$"):
            profile_direct(0)
        with pytest.raises(ValueError, match="^modulus must be >= 2, got 1$"):
            zero_count_direct(1)


class TestProfilesDirect:
    # the lane scan against the scalar one, m by m; [2, 3000] refills every
    # lane many times, 9900..10000 fills fewer than _LANES
    @pytest.mark.parametrize("moduli", [
        range(2, 3001),
        range(9900, 10001),
        random.Random(33).sample(range(2, 2001), 1999),
        random.Random(34).sample(range(2, 10001), 150),
        [],
    ], ids=["2-3000", "9900-10000", "shuffled-2-2000", "shuffled-150", "none"])
    def test_equals_profile_direct(self, moduli):
        assert profiles_direct(moduli) == [profile_direct(m) for m in moduli]

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_refilled_lanes_equal_profile_direct(self, lanes, monkeypatch):
        # fewer lanes than moduli: every lane takes a run of moduli, each
        # started on either residue of a pass, repeated moduli included
        monkeypatch.setattr(pisano_module, "_LANES", lanes)
        moduli = [*range(2, 200), 13, 2, 2, 10, 5, 3, 11, 1250]
        assert profiles_direct(moduli) == [profile_direct(m) for m in moduli]

    @pytest.mark.parametrize("lanes", [1, 192])
    def test_period_at_the_exact_bound(self, lanes, monkeypatch):
        # m = 2 * 5^k returns at its lane's last term, alone or beside others
        monkeypatch.setattr(pisano_module, "_LANES", lanes)
        moduli = [10, 50, 250, 1250]
        want = [(60, 15, 4), (300, 75, 4), (1500, 375, 4), (7500, 1875, 4)]
        assert [(p.gamma, p.alpha, p.upsilon) for p in profiles_direct(moduli)] == want
        for m, (gamma, alpha, upsilon) in zip(moduli, want):
            assert profiles_direct([m]) == [PisanoProfile(m, gamma, alpha, upsilon)]

    @pytest.mark.parametrize("lanes", [1, 192])
    def test_period_past_the_bound_is_an_anomaly(self, lanes, monkeypatch):
        # the texts of profile_direct, on either half of a pass, and a lane
        # that fails makes way for the next modulus
        monkeypatch.setattr(pisano_module, "_LANES", lanes)
        monkeypatch.setattr(pisano_module, "_PERIOD_BOUND_FACTOR", 5)
        with pytest.raises(AnomalyError, match="no period found for m=10 within 50 steps"):
            profiles_direct([10])
        with pytest.raises(AnomalyError, match="no period found for m=10 within 50 steps"):
            profiles_direct([7, 10, 3, 11])
        assert [p.gamma for p in profiles_direct([7, 3, 11])] == [16, 8, 10]
        monkeypatch.setattr(pisano_module, "_PERIOD_BOUND_FACTOR", 1)
        with pytest.raises(AnomalyError, match="no period found for m=2 within 2 steps"):
            profiles_direct([2])
        monkeypatch.setattr(pisano_module, "_PERIOD_BOUND_FACTOR", 2)
        with pytest.raises(AnomalyError, match="no period found for m=3 within 6 steps"):
            profiles_direct([3])
        with pytest.raises(AnomalyError, match="no period found for m=3 within 6 steps"):
            profiles_direct([2, 3, 2])
        assert profiles_direct([2])[0].gamma == 3

    def test_rejects_bad_moduli(self):
        # the smallest modulus is named, wherever it stands
        with pytest.raises(ValueError, match="^modulus must be >= 2, got 0$"):
            profiles_direct([5, 0, 7])
        with pytest.raises(ValueError, match="^modulus must be >= 2, got -3$"):
            profiles_direct([0, -3])
        with pytest.raises(ValueError, match="^modulus must be >= 2, got 1$"):
            profiles_direct([1, 2, 3])

    def test_rejects_a_modulus_below_two_before_any_lane_runs(self, monkeypatch):
        # 10 would pass its bound, but no lane may start beside a modulus below 2
        monkeypatch.setattr(pisano_module, "_PERIOD_BOUND_FACTOR", 5)
        def refuse(moduli):
            raise AssertionError(f"a lane ran for {moduli}")

        monkeypatch.setattr(pisano_module, "_lane_scan", refuse)
        for moduli in ([7, 10, 0], [7, 0, 10], [1, 10]):
            with pytest.raises(ValueError, match="^modulus must be >= 2, got [01]$"):
                profiles_direct(moduli)

    @pytest.mark.parametrize("lanes", [1, 192])
    def test_bound_anomaly_names_the_failing_lane(self, lanes, monkeypatch):
        monkeypatch.setattr(pisano_module, "_LANES", lanes)
        monkeypatch.setattr(pisano_module, "_PERIOD_BOUND_FACTOR", 5)
        for moduli in ([7, 10, 3], [10, 7, 3], [3, 7, 10]):
            with pytest.raises(AnomalyError) as info:
                profiles_direct(moduli)
            assert str(info.value) == "no period found for m=10 within 50 steps"

    def test_reaches_no_fast_route(self):
        with contextlib.ExitStack() as stack:
            for name in ("pisano_fast", "factorize", "fib_pair_mod"):
                stack.enter_context(mock.patch.object(pisano_module, name, _refuse))
            profiles = profiles_direct(range(2, 500))
        assert [(p.gamma, p.alpha, p.upsilon) for p in profiles] == [
            (pisano_scan(m), rank_scan(m), zero_scan(m)) for m in range(2, 500)
        ]


class TestPrimePeriod:
    def test_knowns(self):
        assert prime_period(2) == 3
        assert prime_period(5) == 20
        assert prime_period(7) == 16
        assert prime_period(11) == 10

    def test_matches_direct(self):
        for p in sieve_upto(2000):
            assert prime_period(p) == pisano_direct(p), p

    def test_premise_that_fails_is_an_anomaly(self):
        # with chi taken as 1, the bound of 7 is 6, and P^6 != I mod 7
        prime_period.cache_clear()
        try:
            with mock.patch.object(pisano_module, "_legendre5", lambda p: 1):
                with pytest.raises(AnomalyError) as info:
                    prime_period(7)
        finally:
            prime_period.cache_clear()
        assert str(info.value) == "order reduction premise fails: predicate false at 6"

    def test_one_ladder_plus_one_per_odd_prime_test(self, monkeypatch):
        # chi = -1: the premise and the halvings by 2 read one ladder's
        # doublings, and each odd-prime test is a ladder; chi = +1: no ladder,
        # and builtin pow for the root of 5, its lift, phi^odd and each test
        pows = []
        monkeypatch.setattr(pisano_module, "pow", lambda *args: pows.append(args) or pow(*args), raising=False)
        routes = Counter()
        prime_period.cache_clear()
        try:
            with binding_calls(fib_pair_mod) as calls:
                for p in primes_between(10**6, 10**6 + 10**4 - 1):
                    calls.clear()
                    pows.clear()
                    gamma = prime_period(p)
                    if p % 5 in (1, 4):
                        routes[p % 8 == 1] += 1
                        assert (len(calls), len(pows)) == (0, route_pows(p, gamma)), (p, calls, pows)
                    else:
                        routes[None] += 1
                        assert (len(calls), len(pows)) == (1 + odd_prime_tests(p, gamma), 0), (p, calls, pows)
        finally:
            prime_period.cache_clear()
        assert min(routes[None], routes[True], routes[False]) > 50

    def test_prime_just_below_2_64_with_chi_minus_one(self):
        # its bound 2 * (p + 1) is past factorize's domain; p + 1 is not
        p = 2**64 - 59
        assert is_prime(p) and pisano_module._legendre5(p) == -1
        gamma = prime_period(p)
        assert gamma == 5270498306774157588

        def is_identity(n):
            mat = matrix_pow_mod(n, p)
            return (mat.u_prev, mat.u_cur, mat.u_next) == (1, 0, 1)

        assert is_identity(gamma)
        assert not any(is_identity(gamma // q) for q, _ in factorize(gamma))
        assert profile(p) == PisanoProfile(p, gamma, gamma // 4, 4)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            prime_period(10)


def _lone_index_residue(p):
    """The index residue of a chi = +1 prime from the root of its lone facts."""
    return pisano_module._index_residue(p, pisano_module._prime_facts(p)[1])


class TestEigenRoute:
    """chi = +1 primes: the period and the index residue from a square root of
    5, held against the ladders."""

    def test_period_and_index_residue_match_the_ladders(self):
        chi_plus = [p for p in sieve_upto(10**5) if p % 5 in (1, 4)]
        prime_period.cache_clear()
        try:
            for p in chi_plus:
                assert prime_period(p) == ladder_prime_period(p), p
                assert _lone_index_residue(p) == fib_pair_mod(p - 1, p * p)[0], p
        finally:
            prime_period.cache_clear()
        assert len(chi_plus) > 4500

    @pytest.mark.parametrize("lo", [10**7, 10**9, 10**12])
    def test_windows_match_the_ladders_in_and_out_of_a_scan_block(self, lo):
        hi = lo + 10**4 - 1
        primes = primes_between(lo, hi)
        prime_period.cache_clear()
        try:
            # the scan's own block, its primes from its window's sieve; the store's factors and roots
            _, records = wss_module._scan_block(next(wss_module._blocks(lo, hi, hi - lo + 1)))
            assert [r.p for r in records] == primes
            for r in records:
                p, p2 = r.p, r.p * r.p
                assert r.residue_fib_index_mod_p2 == fib_pair_mod(r.index, p2)[0], p
                assert r.residue_fib_gamma_mod_p2 == fib_pair_mod(ladder_prime_period(p), p2)[0], p
            prime_period.cache_clear()
            for p in primes:  # factorize and a fresh root, outside a block
                assert prime_period(p) == ladder_prime_period(p), p
                if p % 5 in (1, 4):
                    assert _lone_index_residue(p) == fib_pair_mod(p - 1, p * p)[0], p
        finally:
            prime_period.cache_clear()

    def test_every_square_root_branch(self):
        for p, v in _LARGE_TWO_PARTS.items():
            assert is_prime(p) and p % 5 in (1, 4) and two_adic_split(p - 1)[0] == v
        primes = [p for p in sieve_upto(3000) if p % 5 in (1, 4)] + list(_LARGE_TWO_PARTS)
        # one pow for p = 3 mod 4, Atkin for p = 5 mod 8, Tonelli-Shanks for p = 1 mod 8
        assert {p % 4 if p % 4 == 3 else p % 8 for p in primes} == {3, 5, 1}
        prime_period.cache_clear()
        try:
            for p in primes:
                s = pisano_module._sqrt5_mod_p(p)
                assert s * s % p == 5, p
                root = pisano_module._root5(p)
                assert (root * root - 5) % (p * p) == 0 and root % p == s, p
                assert prime_period(p) == ladder_prime_period(p), p
                assert pisano_module._index_residue(p, root) == fib_pair_mod(p - 1, p * p)[0], p
        finally:
            prime_period.cache_clear()

    def test_a_wrong_root_is_an_anomaly(self, monkeypatch):
        real = pisano_module._sqrt5_mod_p
        monkeypatch.setattr(pisano_module, "_sqrt5_mod_p", lambda p: (real(p) + 1) % p)
        prime_period.cache_clear()
        try:
            with pytest.raises(AnomalyError, match="^order reduction premise fails: predicate false at 28$"):
                prime_period(29)
            with pytest.raises(AnomalyError):
                wss_check(29)
            before = module_state(pisano_module, wss_module)
            with pytest.raises(AnomalyError):
                wss_module._scan_block(next(wss_module._blocks(20, 40, 21)))
            assert module_state(pisano_module, wss_module) == before
            # a root right mod p but lifted wrong: an inverse off by one
            monkeypatch.setattr(pisano_module, "_sqrt5_mod_p", real)
            monkeypatch.setattr(
                pisano_module, "pow", lambda *args: pow(*args) + (args[1] == -1), raising=False
            )
            with pytest.raises(AnomalyError, match="^Hensel lift fails: "):
                prime_period(29)
            with pytest.raises(AnomalyError, match="^Hensel lift fails: "):
                wss_check(29)
        finally:
            prime_period.cache_clear()


class TestBoundFactorSieve:
    """The odd primes of a scan block's period bounds, by one strike pass."""

    @pytest.mark.parametrize("lo,hi", [(2, 3000), (5, 5), (10**7, 10**7 + 9999), (10**9, 10**9 + 9999),
                                       (10**12, 10**12 + 9999),
                                       ((2**20 + 1) ** 2 - 3000, (2**20 + 1) ** 2 + 3000),
                                       (2**41, 2**41 + 3000)])
    def test_matches_factorize(self, lo, hi):
        primes = primes_in_range(lo, hi)
        assert pisano_module._bound_factor_sieve(primes) == {p: bound_odd_primes(p) for p in primes}

    def test_twin_primes_share_their_neighbours_odd_primes(self):
        # 17 (chi = -1, bound 36) and 19 (chi = +1, bound 18) share the neighbour 18
        assert pisano_module._bound_factor_sieve([17, 19]) == {17: (3,), 19: (3,)}
        lo = 10**12
        primes = primes_between(lo, lo + 9999)
        p = next(p for p in primes if p + 2 in primes and p % 5 == 2)
        sieved = pisano_module._bound_factor_sieve(primes)
        assert period_bound(p) == 2 * (p + 1) and period_bound(p + 2) == p + 1
        assert sieved[p] == sieved[p + 2] == bound_odd_primes(p + 2) == bound_odd_primes(p) != ()

    def test_a_composite_cofactor_goes_through_rho(self, monkeypatch):
        lo, hi = 10**12, 10**12 + 9999
        primes = primes_in_range(lo, hi)
        limit = pisano_module._SIEVE_LIMIT
        assert limit < math.isqrt(hi + 1)

        def cofactor(p):
            return math.prod(q**e for q, e in factorize(period_bound(p)) if q > limit)

        p = next(p for p in primes if len([q for q, _ in factorize(period_bound(p)) if q > limit]) > 1)
        rough, want = cofactor(p), bound_odd_primes(p)
        assert not is_prime(rough) and rough >= (limit + 1) ** 2
        splits, proofs = [], []
        rho, real_is_prime = arith._rho_factor, arith.is_prime
        monkeypatch.setattr(arith, "_rho_factor", lambda n: splits.append(n) or rho(n))
        monkeypatch.setattr(arith, "is_prime", lambda n: proofs.append(n) or real_is_prime(n))
        assert pisano_module._bound_factor_sieve(primes)[p] == want
        assert rough in splits
        # only a cofactor of at least (B + 1)^2 is proved or split
        assert min(splits + proofs) >= (limit + 1) ** 2

    def test_cofactors_need_no_proof_below_the_isqrt_cap(self, monkeypatch):
        # at 1e7, B = isqrt(largest neighbour), so every cofactor is 1 or a prime
        calls = []
        primes = primes_between(10**7, 10**7 + 9999)
        want = {p: bound_odd_primes(p) for p in primes}
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n))
        assert pisano_module._bound_factor_sieve(primes) == want
        assert calls == []


@pytest.mark.parametrize("p", [3, 7, 127, 524_287, 2**31 - 1])
def test_a_bound_with_no_odd_prime_takes_no_factoring(p):
    # p + 1 is a power of 2: the facts list no prime, alone or in a block,
    # and factorize is not called for them
    with factorize_calls() as calls:
        facts = pisano_module._prime_facts(p)
    assert facts == ((), None) and calls == []
    assert pisano_module._bound_factor_sieve([p]) == {p: ()}
    assert wss_check(p) == wss_module._scan_block((p, p, [p]))[1][0]
    prime_period.cache_clear()
    try:
        assert prime_period(p) == ladder_prime_period(p)
    finally:
        prime_period.cache_clear()


class TestLiftingExponent:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_examples(self, p):
        assert lifting_exponent(p) == 1

    def test_matches_exact_valuation(self):
        fib = fib_upto(2000)
        for p in sieve_upto(300):
            value = fib[prime_period(p)]
            a = 0
            while value % p == 0:
                value //= p
                a += 1
            assert lifting_exponent(p) == a, p


class TestPrimePowerPeriod:
    def test_examples(self):
        assert prime_power_period(2, 3) == 12
        assert prime_power_period(5, 1) == 20
        assert prime_power_period(5, 2) == 100
        assert pisano_direct(25) == 100

    def test_two_powers_match_direct(self):
        for k in range(1, 21):
            assert prime_power_period(2, k) == pisano_direct(2**k)

    def test_odd_powers_match_direct(self):
        for p, e in [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (11, 2), (13, 2), (47, 2)]:
            assert prime_power_period(p, e) == pisano_direct(p**e)

    def test_structure(self):
        for p in sieve_upto(200):
            gamma_p = prime_period(p)
            for e in (1, 2, 3):
                assert prime_power_period(p, e) % gamma_p == 0
            if p != 2:
                assert gamma_p % 2 == 0

    def test_first_powers_never_read_the_lifting_exponent(self):
        def refuse(p):
            raise AssertionError(f"lifting_exponent({p}) called")

        with mock.patch.object(pisano_module, "lifting_exponent", refuse):
            for p in sieve_upto(500):
                assert prime_power_period(p, 1) == pisano_direct(p), p

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prime_power_period(4, 2)
        with pytest.raises(ValueError):
            prime_power_period(3, 0)


class TestPisanoFast:
    @pytest.mark.parametrize("m,period", [(10, 60), (6, 24), (12, 24), (36, 24)])
    def test_examples(self, m, period):
        assert pisano_fast(m) == period

    def test_matches_direct(self):
        for m in range(2, 2000):
            assert pisano_fast(m) == pisano_direct(m), m

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            pisano_fast(1)


class TestRankOfApparition:
    @pytest.mark.parametrize("m,rank", [(5, 5), (2, 3), (6, 12)])
    def test_examples(self, m, rank):
        assert rank_of_apparition(m) == rank

    def test_matches_scan(self):
        for m in range(2, 3000):
            assert rank_of_apparition(m) == rank_scan(m), m

    def test_rank_neighbors_nonzero_at_primes(self):
        for p in sieve_upto(10_000):
            rank = rank_of_apparition(p)
            assert fib_pair_mod(rank - 1, p)[0] != 0
            assert fib_pair_mod(rank + 1, p)[0] != 0


class TestZeroCount:
    @pytest.mark.parametrize("m,count", [(5, 4), (2, 1), (8, 2)])
    def test_examples(self, m, count):
        assert zero_count(m) == count

    def test_matches_scan(self):
        for m in range(2, 500):
            direct = zero_count_direct(m)
            assert zero_count(m) == direct == zero_scan(m), m

    def test_two_power_counts(self):
        assert zero_count(2) == 1
        assert zero_count(4) == 1
        for e in range(3, 13):
            assert zero_count(2**e) == 2

    def test_odd_prime_powers_stable(self):
        for p in sieve_upto(100):
            if p == 2:
                continue
            base = zero_count(p)
            for e in (2, 3):
                if p**e <= 10**6:
                    assert zero_count(p**e) == base, (p, e)


class TestProfile:
    def test_one(self):
        with pytest.raises(ValueError) as info:
            profile(1)
        assert str(info.value) == "modulus must be >= 2, got 1"

    def test_examples(self):
        prof = profile(5)
        assert (prof.gamma, prof.alpha, prof.upsilon) == (20, 5, 4)
        prof = profile(2)
        assert (prof.gamma, prof.alpha, prof.upsilon) == (3, 3, 1)

    def test_invariants_over_range(self):
        for m in range(2, 1000):
            prof = profile(m)
            assert prof.gamma == prof.upsilon * prof.alpha
            assert prof.upsilon in (1, 2, 4)
            assert fib_pair_mod(prof.gamma, m) == (0, 1 % m)
            assert fib_pair_mod(prof.alpha, m)[0] == 0

    def test_odd_prime_periods_even(self):
        for p in sieve_upto(10_000):
            if p != 2:
                assert prime_period(p) % 2 == 0

    def test_rank_does_not_factor_the_period(self):
        for p in sieve_upto(3000):
            prime_period(p)  # warm the per-prime memo: only m is then left to factor
        with factorize_calls() as calls:
            for m in range(2, 3000):
                calls.clear()
                prof = profile(m)
                assert calls == [m], (m, calls)
                assert (prof.gamma, prof.alpha, prof.upsilon) == (
                    pisano_scan(m), rank_scan(m), zero_scan(m)
                ), m

    def test_fast_period_that_is_no_period_is_an_anomaly(self):
        real = pisano_module.pisano_fast
        with mock.patch.object(pisano_module, "pisano_fast", lambda m: 17 if m == 7 else real(m)):
            with pytest.raises(AnomalyError, match=r"\b17\b.*m=7\b"):
                profile(7)

    def test_fast_period_that_is_a_multiple_of_the_rank_only_is_an_anomaly(self):
        # u_5 == 0 mod 5, but P^5 == u_6 * I == 3*I mod 5: 5 is the rank, not a period
        real = pisano_module.pisano_fast
        with mock.patch.object(pisano_module, "pisano_fast", lambda m: 5 if m == 5 else real(m)):
            with pytest.raises(AnomalyError, match=r"fast period 5 of m=5 .* 3\*I"):
                profile(5)

    @pytest.mark.parametrize("m,gamma,detail", [
        (3, 4, "P^4 = 2*I mod m"),  # u_4 == 0 mod 3, and u_5 == 2
        (7, 8, "P^8 = 6*I mod m"),  # u_8 == 0 mod 7, and u_9 == 6
        (10, 7, "u_7 != 0 mod m"),
    ])
    def test_false_period_anomaly_texts(self, m, gamma, detail):
        with pytest.raises(AnomalyError) as info:
            pisano_module._profile_with_period(m, gamma)
        assert str(info.value) == f"fast period {gamma} of m={m} is not a period: {detail}"

    def test_one_ladder_per_modulus(self):
        # the zero count reads period/4, period/2 and period from one ladder's doublings
        moduli = [*range(2, 3000), *range(2_000_000, 2_000_300)]
        periods = [pisano_fast(m) for m in moduli]
        with binding_calls(fib_pair_mod) as calls:
            for m, gamma in zip(moduli, periods):
                calls.clear()
                prof = pisano_module._profile_with_period(m, gamma)
                assert len(calls) == 1, (m, calls)
                assert prof.gamma == gamma == prof.alpha * prof.upsilon, m

    @pytest.mark.parametrize("m", [
        *(2**k for k in range(1, 17)),
        *(3**k for k in range(1, 10)),
        *(5**k for k in range(1, 7)),
        *(2 * 5**k for k in range(1, 7)),
        # prime factors with zero counts 1 (11, 19, 29), 2 (3, 7, 41) and 4 (5, 13, 17, 37)
        11 * 13 * 17, 3 * 11 * 13 * 17, 2**5 * 5**3 * 11, 13 * 17 * 37,
        5**3 * 13 * 17, 3**2 * 7 * 13 * 17, 2**3 * 3 * 7 * 11 * 19, 29 * 37 * 41,
    ])
    def test_matches_direct_on_structured_moduli(self, m):
        assert profile(m) == profile_direct(m)


@pytest.mark.parametrize(
    "function",
    [prime_period, lambda p: prime_power_period(p, 1), wss_check, period_divisor_class,
     is_good_prime, zero_count_period_pattern],
    ids=["prime_period", "prime_power_period", "wss_check", "period_divisor_class",
         "is_good_prime", "zero_count_period_pattern"],
)
@pytest.mark.parametrize("p", [0, 1, -7, 9, 91, 2**64 + 1])
def test_period_layer_rejects_non_primes(function, p):
    want = "is_prime is deterministic only below 2**64" if p >= 2**64 else f"{p} is not prime"
    with pytest.raises(ValueError) as info:
        function(p)
    assert str(info.value) == want


_PER_MODULUS_ROUTES = {
    "pisano_direct": pisano_direct,
    "zero_count_direct": zero_count_direct,
    "profile_direct": profile_direct,
    "profiles_direct": lambda m: profiles_direct([m]),
    "pisano_fast": pisano_fast,
    "profile": profile,
    "rank_of_apparition": rank_of_apparition,
    "zero_count": zero_count,
    "self_square_test": self_square_test,
    "is_good_direct": is_good_direct,
    "goodness_report": goodness_report,
}


@pytest.mark.parametrize("route", _PER_MODULUS_ROUTES.values(), ids=_PER_MODULUS_ROUTES)
@pytest.mark.parametrize("m", [1, 0, -3])
def test_per_modulus_routes_share_one_domain(route, m):
    # m >= 2, the paper's N without {0, 1}, refused in one text on every route
    with pytest.raises(ValueError) as info:
        route(m)
    assert str(info.value) == f"modulus must be >= 2, got {m}"


def test_memo_caches_are_bounded():
    # a scan memoizes every prime it meets; an unbounded cache grows with the range
    for function in (prime_period, lifting_exponent, pisano_module._prime_zero_count):
        assert function.cache_info().maxsize is not None
    # only per-prime facts are memoized: a period of m is computed from its factorization
    assert not hasattr(pisano_fast, "cache_info")

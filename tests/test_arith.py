import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmod.arith import (
    Factorization,
    factorize,
    is_prime,
    primes_in_range,
    sieve_upto,
    two_adic_split,
)

from helpers import is_prime_trial


class TestTwoAdicSplit:
    @pytest.mark.parametrize("n,expect", [(20, (2, 5)), (1, (0, 1)), (48, (4, 3))])
    def test_examples(self, n, expect):
        assert two_adic_split(n) == expect

    def test_recomposition(self):
        for n in range(1, 5000):
            k, odd = two_adic_split(n)
            assert odd % 2 == 1
            assert (1 << k) * odd == n

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            two_adic_split(0)


class TestIsPrime:
    def test_matches_trial_division(self):
        for n in range(0, 20000):
            assert is_prime(n) == is_prime_trial(n), n

    def test_two(self):
        assert is_prime(2)

    def test_known_composite(self):
        # 46368 = 2^5 * 3^2 * 7 * 23
        assert 2**5 * 3**2 * 7 * 23 == 46368
        assert not is_prime(46368)

    def test_large_prime(self):
        assert is_prime_trial(10**9 + 7)
        assert is_prime(10**9 + 7)

    def test_strong_pseudoprime_caught(self):
        # composite that fools naive base-2/3/5/7 Miller-Rabin
        n = 3215031751
        assert n == 151 * 751 * 28351
        assert not is_prime(n)

    def test_domain_boundary(self):
        with pytest.raises(ValueError):
            is_prime(1 << 64)


class TestFactorize:
    @pytest.mark.parametrize(
        "n,factors",
        [
            (12, ((2, 2), (3, 1))),
            (46368, ((2, 5), (3, 2), (7, 1), (23, 1))),
            (97, ((97, 1),)),
        ],
    )
    def test_examples(self, n, factors):
        assert factorize(n).factors == factors

    def test_recomposition_and_order(self):
        for n in range(2, 3000):
            fact = factorize(n)
            prod = 1
            prev = 1
            for p, e in fact.factors:
                assert p > prev and e >= 1
                assert is_prime_trial(p)
                prev = p
                prod *= p**e
            assert prod == n

    def test_rho_path_on_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert is_prime_trial(p) and is_prime_trial(q)
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_deterministic(self):
        n = 614_889_782_588_491_410  # product of the primes up to 47
        assert factorize(n) == factorize(n)

    def test_rho_on_64bit_semiprime(self):
        # both primes verified by trial division when this value was frozen
        p, q = 2147483659, 2147483693
        assert factorize(p * q).factors == ((p, 1), (q, 1))
        assert factorize(p * p).factors == ((p, 2),)

    def test_rejects_small(self):
        for n in (-1, 0, 1):
            with pytest.raises(ValueError):
                factorize(n)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            Factorization(12, ((2, 2),))  # product mismatch
        with pytest.raises(ValueError):
            Factorization(12, ((3, 1), (2, 2)))  # wrong order
        with pytest.raises(ValueError):
            Factorization(16, ((4, 2),))  # non-prime base

    def test_divisors(self):
        assert factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
        assert factorize(97).divisors() == [1, 97]
        assert factorize(60).divisors() == sorted(
            d for d in range(1, 61) if 60 % d == 0
        )


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 2**60))
def test_two_adic_split_recomposes(n):
    k, odd = two_adic_split(n)
    assert odd % 2 == 1 and (odd << k) == n


class TestSieves:
    def test_sieve_matches_trial_division(self):
        assert sieve_upto(500) == [n for n in range(501) if is_prime_trial(n)]
        assert sieve_upto(1) == []

    def test_segment_matches_full_sieve(self):
        full = sieve_upto(10_000)
        assert primes_in_range(5_000, 10_000) == [p for p in full if p >= 5_000]
        assert primes_in_range(0, 10) == [2, 3, 5, 7]
        assert primes_in_range(11, 11) == [11]
        assert primes_in_range(24, 28) == []
        assert primes_in_range(10, 9) == []

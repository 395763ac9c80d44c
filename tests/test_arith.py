import json
import math
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmod import arith
from fibmod.arith import (
    Factorization,
    factorize,
    is_prime,
    primes_in_range,
    sieve_upto,
    two_adic_split,
)

from helpers import is_prime_trial, primes_between


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

    def test_full_validation_accepts_every_result(self):
        rng = random.Random(20070401)
        for n in [*range(2, 5001), *(rng.randrange(2, 2**64) for _ in range(2000))]:
            assert factorize(n) == Factorization(n, factorize(n).factors), n

    def test_result_is_not_proved_twice(self, monkeypatch):
        calls = []
        real = arith.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        # trial division finds 2 and 3; the cofactor 999983 < 1000**2 is prime by construction
        assert factorize(2**10 * 3**5 * 999983).factors == ((2, 10), (3, 5), (999983, 1))
        assert calls == []

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            Factorization(12, ((2, 2),))  # product mismatch
        with pytest.raises(ValueError):
            Factorization(12, ((3, 1), (2, 2)))  # wrong order
        with pytest.raises(ValueError):
            Factorization(16, ((4, 2),))  # non-prime base


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 2**60))
def test_two_adic_split_recomposes(n):
    k, odd = two_adic_split(n)
    assert odd % 2 == 1 and (odd << k) == n


class TestSieves:
    def test_sieve_matches_trial_division(self):
        assert sieve_upto(500) == [n for n in range(501) if is_prime_trial(n)]
        assert sieve_upto(1) == []

    def test_every_small_window_matches_trial_division(self):
        primes = [n for n in range(200) if is_prime_trial(n)]
        for lo in range(200):
            for hi in range(200):
                assert primes_in_range(lo, hi) == [p for p in primes if lo <= p <= hi], (lo, hi)

    def test_window_near_1e12_matches_primality_test(self):
        lo, hi = 10**12, 10**12 + 2000
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]

    def test_segment_matches_full_sieve(self):
        full = sieve_upto(10_000)
        assert primes_in_range(5_000, 10_000) == [p for p in full if p >= 5_000]
        assert primes_in_range(0, 10) == [2, 3, 5, 7]
        assert primes_in_range(11, 11) == [11]
        assert primes_in_range(24, 28) == []
        assert primes_in_range(10, 9) == []


def _oracle(lo: int, hi: int) -> list[int]:
    """Up to 1e12 a full sieve that shares no code with arith; above, is_prime."""
    if hi <= 10**12:
        return primes_between(lo, hi)
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def _largest_prime_upto(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


class TestWindowSieve:
    """primes_in_range's base primes reach min(isqrt(hi), width); larger survivors are proved."""

    WIDTHS = (1, 2, 3, 97, 1000, 3000)

    @pytest.mark.parametrize("top", [10**9, 10**12, 10**15, 10**18, 2**63, 2**64])
    def test_windows_near_magnitude(self, top):
        for width in self.WIDTHS:
            ends = (top - 1, top - 7919) if top in (2**63, 2**64) else (top - 1, top + width, top + 7919)
            for hi in ends:
                lo = hi - width + 1
                assert primes_in_range(lo, hi) == _oracle(lo, hi), (lo, hi)

    @pytest.mark.parametrize(
        "q", [997, 1009, 999983, 1000003, _largest_prime_upto(math.isqrt(2**63 - 1))]
    )
    def test_windows_around_a_prime_square(self, q):
        # q*q has no factor below q: a window narrower than q leaves it to is_prime
        square = q * q
        for below, above in [(0, 0), (1, 0), (0, 1), (48, 48), (q // 2, q // 2), (q, q), (q - 1, 0)]:
            lo, hi = square - below, square + above
            if hi - lo < 3000 or hi <= 10**12:  # a wide window only where the sieve oracle reaches
                got = primes_in_range(lo, hi)
                assert square not in got
                assert got == _oracle(lo, hi), (lo, hi)

    def test_windows_straddling_the_proven_bound(self):
        # base = width < isqrt(hi), so (width + 1)**2 lies inside the window
        for width in self.WIDTHS:
            bound = (width + 1) ** 2
            for shift in (0, 1, width // 2, width - 1):
                lo = bound - shift
                hi = lo + width - 1
                assert min(math.isqrt(hi), width) == width
                assert primes_in_range(lo, hi) == _oracle(lo, hi), (lo, hi)

    def test_full_sieve_makes_no_primality_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or True)
        assert len(sieve_upto(10**5)) == 9592
        root = math.isqrt(10**9 + 31622)
        assert primes_in_range(10**9, 10**9 + root - 1) == primes_between(10**9, 10**9 + root - 1)
        assert calls == []
        # one narrower than isqrt(hi) proves its survivors
        primes_in_range(10**9, 10**9 + 999)
        assert calls

    def test_domain_is_below_2_64(self):
        assert primes_in_range(2**64 - 59, 2**64 - 1) == [2**64 - 59]
        with pytest.raises(ValueError):
            primes_in_range(2**64 - 10, 2**64)
        with pytest.raises(ValueError):
            primes_in_range(2**64 + 5, 2**64)

    def test_memory_is_bounded_by_the_window(self):
        # a base sieve to isqrt(2**63) would need a ~3 GB bytearray; the child has 1 GiB
        lo, hi = 2**63 - 2 * 10**4, 2**63 - 10**4 - 1
        child = (
            "import json, resource, sys\n"
            "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n"
            "from fibmod.arith import primes_in_range\n"
            "print(json.dumps(primes_in_range(int(sys.argv[1]), int(sys.argv[2]))))\n"
        )
        src = str(pathlib.Path(arith.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", child, str(lo), str(hi)],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout)
        assert got == [n for n in range(lo, hi + 1) if is_prime(n)]
        assert len(got) == 232

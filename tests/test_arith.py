import json
import math
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibmod.pisano as pisano_module
import fibmod.wss as wss_module
from fibmod import arith
from fibmod.arith import (
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
        assert factorize(n) == factors

    def test_recomposition_and_order(self):
        for n in range(2, 3000):
            prod = 1
            prev = 1
            for p, e in factorize(n):
                assert p > prev and e >= 1
                assert is_prime_trial(p)
                prev = p
                prod *= p**e
            assert prod == n

    def test_rho_path_on_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert is_prime_trial(p) and is_prime_trial(q)
        assert factorize(p * q) == ((p, 1), (q, 1))

    def test_deterministic(self):
        n = 614_889_782_588_491_410  # product of the primes up to 47
        assert factorize(n) == factorize(n)

    def test_rho_on_64bit_semiprime(self):
        # both primes verified by trial division when this value was frozen
        p, q = 2147483659, 2147483693
        assert factorize(p * q) == ((p, 1), (q, 1))
        assert factorize(p * p) == ((p, 2),)

    def test_rejects_small(self):
        for n in (-1, 0, 1):
            with pytest.raises(ValueError):
                factorize(n)

    def test_full_validation_accepts_every_result(self):
        rng = random.Random(20070401)
        for n in [*range(2, 5001), *(rng.randrange(2, 2**64) for _ in range(2000))]:
            factors = factorize(n)
            bases = [p for p, _ in factors]
            assert bases == sorted(set(bases)), n  # strictly increasing
            assert all(e >= 1 and is_prime(p) for p, e in factors), n
            assert math.prod(p**e for p, e in factors) == n, n

    def test_result_is_not_proved_twice(self, monkeypatch):
        calls = []
        real = arith.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        # trial division finds 2 and 3; the cofactor 999983 < 1000**2 is prime by construction
        assert factorize(2**10 * 3**5 * 999983) == ((2, 10), (3, 5), (999983, 1))
        assert calls == []


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


_WIDTHS = (1, 2, 3, 97, 1000, 3000)
_TOPS = (10**9, 10**12, 10**15, 10**18, 2**63, 2**64)
_SQUARED_PRIMES = (997, 1009, 999983, 1000003, _largest_prime_upto(math.isqrt(2**63 - 1)))


def _windows_near(top):
    for width in _WIDTHS:
        ends = (top - 1, top - 7919) if top in (2**63, 2**64) else (top - 1, top + width, top + 7919)
        for hi in ends:
            yield hi - width + 1, hi


def _windows_around_square(q):
    # q*q has no factor below q: a q above 2**20 leaves it to is_prime
    square = q * q
    for below, above in [(0, 0), (1, 0), (0, 1), (48, 48), (q // 2, q // 2), (q, q), (q - 1, 0)]:
        lo, hi = square - below, square + above
        if hi - lo < 3000 or hi <= 10**12:  # a wide window only where the sieve oracle reaches
            yield lo, hi


# Every prime up to base = min(isqrt(hi), 2**20) strikes, so a survivor is
# prime by the sieve below (base + 1)**2, and only a window reaching past
# _PROVEN leaves survivors to is_prime.
_PROVEN = (2**20 + 1) ** 2
_LEAST_PRIME_ABOVE_BASE = 1048583  # 2**20 + 7: its square is the least composite survivor


def _windows_straddling_the_proven_bound():
    # base = 2**20 < isqrt(hi), so (base + 1)**2 lies inside the window
    for width in _WIDTHS:
        for shift in sorted({0, 1, width // 2, width - 1} & set(range(width))):
            lo = _PROVEN - shift
            yield lo, lo + width - 1


class TestWindowSieve:
    """primes_in_range's base primes reach min(isqrt(hi), 2**20); larger survivors are proved."""

    @pytest.mark.parametrize("top", _TOPS)
    def test_windows_near_magnitude(self, top):
        for lo, hi in _windows_near(top):
            assert primes_in_range(lo, hi) == _oracle(lo, hi), (lo, hi)

    @pytest.mark.parametrize("q", _SQUARED_PRIMES)
    def test_windows_around_a_prime_square(self, q):
        for lo, hi in _windows_around_square(q):
            got = primes_in_range(lo, hi)
            assert q * q not in got
            assert got == _oracle(lo, hi), (lo, hi)

    def test_windows_straddling_the_proven_bound(self):
        for lo, hi in _windows_straddling_the_proven_bound():
            assert min(math.isqrt(hi), 2**20) == 2**20 and lo <= _PROVEN <= hi
            assert primes_in_range(lo, hi) == _oracle(lo, hi), (lo, hi)

    def test_full_sieve_makes_no_primality_call(self, monkeypatch):
        # below (2**20 + 1)**2 a window of any width is proven by the sieve alone
        calls = []
        real = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
        assert len(sieve_upto(10**5)) == 9592
        windows = [(10**9, 10**9 + 999), (10**9 + 7, 10**9 + 7), (10**12, 10**12 + 9999),
                   (_PROVEN - 3000, _PROVEN - 1)]
        for lo, hi in windows:
            assert primes_in_range(lo, hi) == primes_between(lo, hi), (lo, hi)
        assert calls == []

    def test_a_window_straddling_the_proven_square_proves_its_survivors_above_it(self, monkeypatch):
        calls = []
        real = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
        lo, hi = _PROVEN - 5000, _PROVEN + 5000
        primes = primes_between(lo, hi)
        assert primes_in_range(lo, hi) == primes
        # no composite survives: the least, 1048583**2, lies past the window
        assert calls == [p for p in primes if p >= _PROVEN]
        assert min(calls) > _PROVEN > max(p for p in primes if p < _PROVEN)

    def test_the_base_primes_are_one_array_of_the_primes_up_to_2_20(self):
        base = arith._base_primes(10**6)
        assert base is arith._BASE_PRIMES and base.typecode == "I"
        assert list(base) == primes_between(2, 2**20)
        # grown no further, however large hi is, and reused in place
        assert primes_in_range(2**64 - 59, 2**64 - 1) == [2**64 - 59]
        assert arith._base_primes(2**32) is base and len(base) == 82025

    def test_nothing_is_built_at_import_and_the_array_grows_on_demand(self):
        child = (
            "from fibmod import arith\n"
            "print(arith._BASE_PRIMES[-1])\n"
            "arith.primes_in_range(10**7, 10**7 + 100)\n"
            "print(arith._BASE_PRIMES[-1])\n"
        )
        src = str(pathlib.Path(arith.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
                              env={"PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        # the import's trial primes to 1000 need the primes below 2**5; isqrt(1e7) those below 2**12
        assert done.stdout.split() == ["31", "4093"]

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


_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# (bound, bases): each bound is the least composite that is a strong
# pseudoprime to every base of its set (Jaeschke, Math. Comp. 61 (1993))
_TIERS = (
    (48781 * 97561, (2, 7, 61)),
    (611557 * 1834669, (2, 13, 23, 1662803)),
)

# The least strong pseudoprime to 2, 3, 5, 7 and 11 (Jaeschke, 1993): above
# the last tier's bound, so is_prime must reject it with Sinclair's bases.
_PSEUDOPRIME_TO_2_3_5_7_11 = 6763 * 10627 * 29947


def _strong_probable_prime(n: int, bases) -> bool:
    """The strong test for odd n > 2, written here apart from arith."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _seven_base_is_prime(n: int) -> bool:
    """Trial division to 37, then all of Sinclair's bases, whatever the size of n."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    return _strong_probable_prime(n, _SINCLAIR_BASES)


class TestWitnessTiers:
    """is_prime takes the smallest witness set proven for the size of n."""

    @pytest.mark.parametrize("bound,bases", _TIERS)
    def test_each_bound_fools_exactly_its_own_set(self, bound, bases):
        assert [_strong_probable_prime(bound, other) for _, other in _TIERS] == [
            other == bases for _, other in _TIERS
        ]
        assert not _strong_probable_prime(bound, _SINCLAIR_BASES)
        assert is_prime(bound) is False

    def test_a_pseudoprime_past_the_last_tier_is_rejected(self):
        n = _PSEUDOPRIME_TO_2_3_5_7_11
        assert n > max(bound for bound, _ in _TIERS)
        assert _strong_probable_prime(n, (2, 3, 5, 7, 11))
        assert not any(_strong_probable_prime(n, bases) for _, bases in _TIERS)
        assert is_prime(n) is False

    @pytest.mark.parametrize("bound", [bound for bound, _ in _TIERS] + [_PSEUDOPRIME_TO_2_3_5_7_11])
    def test_agrees_with_seven_bases_around_each_bound(self, bound):
        for n in range(bound - 2 * 10**4, bound + 2 * 10**4 + 1):
            assert is_prime(n) == _seven_base_is_prime(n), n

    def test_agrees_with_seven_bases_on_the_window_sieve_windows(self):
        windows = [
            *(w for top in _TOPS for w in _windows_near(top)),
            *(w for q in _SQUARED_PRIMES for w in _windows_around_square(q)),
            *_windows_straddling_the_proven_bound(),
        ]
        checked = 0
        for lo, hi in windows:
            if hi - lo < 3000:  # the wide windows around a square hold ~10**6 numbers
                for n in range(lo, min(hi + 1, 2**64)):
                    assert is_prime(n) == _seven_base_is_prime(n), n
                checked += hi - lo + 1
        assert checked > 70_000


def _store_during_block(lo, hi):
    """The block store as each wss_check of the scan block [lo, hi] sees it:
    (the store object, its keys), with wss_check a stand-in that checks nothing."""
    seen = []

    def record(p):
        seen.append((pisano_module._BLOCK_STORE, set(pisano_module._BLOCK_STORE)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wss_module, "wss_check", record)
        wss_module._scan_block((lo, hi, primes_in_range(lo, hi)))
    return seen


class TestWindowMemo:
    """The block store holds one scan block's proven primes while the block is
    checked, and only those; primes_in_range alone stores nothing."""

    @pytest.mark.parametrize("lo,hi", [(10**9, 10**9 + 999), (10**12, 10**12 + 2000), (2**63 - 3000, 2**63)])
    def test_the_set_holds_the_window_proved_primes_and_composites_stay_composite(self, lo, hi, monkeypatch):
        store = pisano_module._BLOCK_STORE
        primes = primes_in_range(lo, hi)
        assert pisano_module._BLOCK_STORE is store and store == {}
        keys, verdicts = [], []

        def check(p):
            keys.append(set(store))
            if not verdicts:  # is_prime over the whole window, while the store is full
                verdicts.extend(is_prime(n) for n in range(lo, hi + 1))

        monkeypatch.setattr(wss_module, "wss_check", check)
        wss_module._scan_block((lo, hi, primes))
        assert pisano_module._BLOCK_STORE is store and store == {}
        assert keys == [set(primes)] * len(primes)
        assert verdicts == [_seven_base_is_prime(n) for n in range(lo, hi + 1)]

    def test_a_new_window_replaces_the_last(self):
        first = _store_during_block(10**12, 10**12 + 2000)
        second = _store_during_block(10**15, 10**15 + 2000)
        assert {frozenset(keys) for _, keys in first} == {frozenset(primes_in_range(10**12, 10**12 + 2000))}
        assert {frozenset(keys) for _, keys in second} == {frozenset(primes_in_range(10**15, 10**15 + 2000))}
        assert {id(store) for store, _ in first + second} == {id(pisano_module._BLOCK_STORE)}
        assert pisano_module._BLOCK_STORE == {}

    def test_a_full_sieve_window_adds_nothing(self):
        # nor does a narrower one: only a scan block fills the store
        store = pisano_module._BLOCK_STORE
        assert len(sieve_upto(10**5)) == 9592
        root = math.isqrt(10**9 + 31622)
        assert primes_in_range(10**9, 10**9 + root - 1)
        assert primes_in_range(10**12, 10**12 + 2000)
        assert pisano_module._BLOCK_STORE is store and store == {}

    def test_a_direct_call_keeps_only_its_window_proved_primes(self):
        # what stays alive while a block is checked: its primes' entries, no more
        lo, hi = 10**15, 10**15 + 9999
        primes = primes_in_range(lo, hi)
        seen = _store_during_block(lo, hi)
        assert [keys for _, keys in seen] == [set(primes)] * len(primes)
        assert len(primes) < (hi - lo + 1) // 30
        # 5 is the one prime the store leaves out: its bound 20 factors at once
        assert [keys for _, keys in _store_during_block(2, 100)] == [set(sieve_upto(100)) - {5}] * 25
        assert pisano_module._BLOCK_STORE == {}

    def test_is_prime_reads_no_block_store(self, monkeypatch):
        # composites planted in pisano's store stay composite for arith
        composites = (91, 999_983 * 1_000_003)
        for n in composites:
            monkeypatch.setitem(pisano_module._BLOCK_STORE, n, ((), None))
        assert [is_prime(n) for n in composites] == [False, False]
        assert [factorize(n) for n in composites] == [((7, 1), (13, 1)), ((999_983, 1), (1_000_003, 1))]
        assert primes_in_range(85, 95) == [89]

    def test_survivors_the_sieve_proved_stay_out(self, monkeypatch):
        # base = 2**20, so survivors below (2**20 + 1)**2 are prime by the sieve alone
        calls = []
        real = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
        q = _LEAST_PRIME_ABOVE_BASE
        lo, hi = q * q - 100, q * q + 100
        primes = primes_between(lo, hi)
        assert primes_in_range(lo, hi) == primes
        # the one composite survivor is q**2, which no base prime strikes
        assert calls == sorted([q * q] + primes)
        assert min(calls) > _PROVEN

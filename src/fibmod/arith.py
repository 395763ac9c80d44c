"""Exact integer arithmetic: 2-adic valuation, primality, factoring, sieving.

Everything here is deterministic. Python integers are arbitrary
precision, so modular products are exact without double-width tricks.
is_prime runs the strong (Miller-Rabin) test with the smallest published
witness set that is deterministic for the size of n, up to Sinclair's seven
bases, which cover every n below 2**64; 2**64 also bounds the domain of
factorize and primes_in_range.

factorize returns the (prime, exponent) pairs of n as a tuple sorted by
prime.  It proves each factor once, while it finds it, and checks the
result no further.  primes_in_range sieves its range as one window, and a
scan sieves a window of whole blocks at a time (_prime_window): every
prime up to min(isqrt(hi), 2**20) strikes, however narrow the window, so
below (2**20 + 1)**2 ~ 1.1e12 the sieve alone proves every survivor, and
above it a survivor is proved by is_prime.  The base primes come from one
array of the primes up to at most 2**20, grown on first use, and the
window's flags, one byte per odd number, are its only other memory.
No module state holds an answer: is_prime, factorize and the sieves
answer from their arguments alone.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from itertools import compress, islice

# Witnesses proven deterministic for every n < 2**64 (Sinclair's base set).
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_TWO64 = 1 << 64

# The one base-prime array: every prime below 2**k, for the least k <= 20
# that a sieve has needed so far.  Grown in place on first use, never at
# import, so it never holds more than the ~82k primes below 2**20 (~330 KB).
# Its last prime's bit length is k (Bertrand's postulate puts a prime in
# [2**(k-1), 2**k)), so the array tells how far it reaches.
_BASE_BITS = 20
_BASE_PRIMES = array("I")

# Trial division strips every prime factor <= _TRIAL_LIMIT before Pollard rho
# takes over; numbers below _TRIAL_LIMIT**2 are therefore fully factored by
# trial division alone.
_TRIAL_LIMIT = 1000


def two_adic_split(n: int) -> tuple[int, int]:
    """Write n = 2**k * odd with odd odd and k maximal; return (k, odd)."""
    if n < 1:
        raise ValueError(f"two_adic_split requires n >= 1, got {n}")
    k = (n & -n).bit_length() - 1
    return k, n >> k


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n >= _TWO64:
        raise ValueError("is_prime is deterministic only below 2**64")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no factor up to 37, so none up to its square root
        return True
    # Each set is deterministic below its bound, the least composite that is
    # a strong pseudoprime to all of its bases (Jaeschke, "On strong
    # pseudoprimes to several bases", Math. Comp. 61 (1993)).
    if n < 4_759_123_141:  # 48781 * 97561
        return _strong_test(n, (2, 7, 61))
    if n < 1_122_004_669_633:  # 611557 * 1834669
        return _strong_test(n, (2, 13, 23, 1662803))
    return _strong_test(n, _SINCLAIR_BASES)


def _strong_test(n: int, bases: tuple[int, ...]) -> bool:
    """Whether odd n, larger than every base, is a strong probable prime to each."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """Nontrivial factor of odd composite n via Brent's cycle variant.

    The polynomial offset c is swept deterministically (1, 2, 3, ...) so
    repeated runs factor identically.
    """
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of 2 <= n < 2**64, primes ascending.

    Trial division, then verified Pollard rho.
    """
    if n < 2:
        raise ValueError(f"cannot factorize {n}")
    if n >= _TWO64:
        raise ValueError("factorize supports n < 2**64")
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    # Trial division stops early only at a prime; otherwise the survivor has
    # no factor <= _TRIAL_LIMIT, and so neither has any part rho splits from it
    if n > 1:
        counts.update(_rough_factors(n, _TRIAL_LIMIT))
    return tuple(sorted(counts.items()))


def _rough_factors(n: int, bound: int) -> dict[int, int]:
    """The prime factors of n > 1, which has none <= bound, with exponents.

    A part below (bound + 1)**2 is then prime; a larger one is proved prime
    by is_prime or split by rho, so every counted factor is proven, once.
    """
    proven = (bound + 1) ** 2
    counts: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m < proven or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _rho_factor(m)
        stack.append(d)
        stack.append(m // d)
    return counts


def _base_primes(limit: int) -> array:
    """The base-prime array, grown in place until it holds every prime up to
    min(limit, 2**20), and returned; it may hold more."""
    bits = max(2, min(limit.bit_length(), _BASE_BITS))
    if not _BASE_PRIMES or _BASE_PRIMES[-1].bit_length() < bits:
        half = 1 << (bits - 1)  # flags[i] stands for 2i + 1 < 2**bits
        flags = bytearray([1]) * half
        flags[0] = 0
        for i in range(1, (math.isqrt(2 * half) + 1) // 2):
            if flags[i]:
                p = 2 * i + 1
                flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, half, p)))
        del _BASE_PRIMES[:]
        _BASE_PRIMES.append(2)
        _BASE_PRIMES.extend(compress(range(1, 2 * half, 2), flags))
    return _BASE_PRIMES


def _sieve_base(hi: int) -> int:
    """The largest base prime a window up to hi strikes with: min(isqrt(hi), 2**20)."""
    return min(math.isqrt(hi), 1 << _BASE_BITS)


def _prime_window(lo: int, hi: int) -> Callable[[int, int], list[int]]:
    """Sieve the window [lo, hi], 2 <= lo <= hi < 2**64, and return the
    function that lists the primes of any [a, b] inside it, ascending.

    Every prime up to base = min(isqrt(hi), 2**20) strikes, however narrow
    the window.  The flags stand for the window's odd numbers, so they take
    half its width in bytes, and a base prime's odd multiples lie p flags
    apart: one with more than one of them in the window strikes them by
    slice, a wider one its one multiple, if any.  A survivor below
    (base + 1)**2 is prime by the sieve; a larger one, left only when
    hi >= (2**20 + 1)**2, must pass is_prime too.  So every listed prime is
    proven, and a list costs only its own [a, b], not the window.
    """
    base = _sieve_base(hi)
    half = lo // 2  # flags[k] stands for 2 * (half + k) + 1
    count = (hi - 1) // 2 - half + 1
    flags = bytearray([1]) * count
    base_primes = _base_primes(base)
    stop = bisect_right(base_primes, base)
    narrow = bisect_right(base_primes, count, 1, stop)  # from index 1: 2 strikes no odd number
    for p in islice(base_primes, 1, narrow):
        # the first odd multiple's flag, or p*p's if p itself is in the window
        k = max(((p >> 1) - half) % p, p * p // 2 - half)
        flags[k::p] = bytes(len(range(k, count, p)))
    for p in islice(base_primes, narrow, stop):
        k = ((p >> 1) - half) % p
        if k < count:
            flags[k] = 0
    proven = (base + 1) ** 2

    def primes(a: int, b: int) -> list[int]:
        found = [2] if a <= 2 <= b else []
        found += compress(range(a | 1, b + 1, 2), flags[a // 2 - half : (b - 1) // 2 - half + 1])
        sieved = bisect_left(found, proven)
        return found[:sieved] + [n for n in found[sieved:] if is_prime(n)]

    return primes


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], for hi < 2**64, each proven: one window of
    _prime_window, so memory is O(hi - lo) however large hi is."""
    if hi >= _TWO64:
        raise ValueError("primes_in_range supports hi < 2**64")
    lo = max(lo, 2)
    if hi < lo:
        return []
    return _prime_window(lo, hi)(lo, hi)


def sieve_upto(n: int) -> list[int]:
    """All primes <= n."""
    return primes_in_range(2, n)


_TRIAL_PRIMES = sieve_upto(_TRIAL_LIMIT)

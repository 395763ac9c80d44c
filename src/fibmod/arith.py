"""Exact integer arithmetic: 2-adic valuation, primality, factoring, sieving.

Everything here is deterministic. Python integers are arbitrary
precision, so modular products are exact without double-width tricks.
is_prime runs the strong (Miller-Rabin) test with the smallest published
witness set that is deterministic for the size of n, up to Sinclair's seven
bases, which cover every n below 2**64; 2**64 also bounds the domain of
factorize and primes_in_range.

factorize returns the (prime, exponent) pairs of n as a tuple sorted by
prime.  It proves each factor once, while it finds it, and checks the
result no further.  primes_in_range sieves a window with base primes no
larger than the window is wide, so its memory is O(window); a survivor
the base primes cannot vouch for is proved by is_prime.

The module's one piece of state is the block store, _BLOCK_STORE, a dict
keyed by the primes of the scan block being checked.  A scan fills it from
its block's primes_in_range, whose every entry is proven, and clears it
once the block is checked, so is_prime answers for those primes without a
second proof (prime_period's gate asks for each).  Its values belong to
pisano: the factors of each prime's period bound, from one strike pass
over the block, and a chi = +1 prime's square root of 5 mod p^2.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress

# Witnesses proven deterministic for every n < 2**64 (Sinclair's base set).
_SINCLAIR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_TWO64 = 1 << 64

# The scan block's primes, each mapped to pisano's facts about it: the
# factors of its period bound and, for chi = +1, its root of 5 mod p^2 (None
# otherwise).  Its keys are proven primes.  Filled and cleared in place by
# the scan, one block at a time, never rebound, so that every binding of it
# stays the same object.
_BLOCK_STORE: dict[int, tuple[tuple[tuple[int, int], ...], int | None]] = {}

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
    if n in _BLOCK_STORE:
        return True
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


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], for hi < 2**64, by a segmented sieve.

    The base primes reach base = min(isqrt(hi), hi - lo + 1), so memory is
    O(hi - lo) however large hi is.  A survivor below (base + 1)**2 is prime
    by the sieve; a larger one, left only when the window is narrower than
    isqrt(hi), must also pass is_prime.  So every returned prime is proven.
    """
    if hi >= _TWO64:
        raise ValueError("primes_in_range supports hi < 2**64")
    lo = max(lo, 2)
    if hi < lo:
        return []
    base = min(math.isqrt(hi), hi - lo + 1)
    flags = bytearray([1]) * (hi - lo + 1)
    for p in primes_in_range(2, base):
        start = max(p * p, lo + (-lo) % p)  # first multiple of p to strike
        flags[start - lo :: p] = bytes((hi - start) // p + 1)
    primes = list(compress(range(lo, hi + 1), flags))
    sieved = bisect_left(primes, (base + 1) ** 2)
    return primes[:sieved] + [n for n in primes[sieved:] if is_prime(n)]


def sieve_upto(n: int) -> list[int]:
    """All primes <= n."""
    return primes_in_range(2, n)


_TRIAL_PRIMES = sieve_upto(_TRIAL_LIMIT)

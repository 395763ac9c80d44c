"""Exact integer arithmetic: 2-adic valuation, primality, factoring.

Everything here is pure and deterministic. Python integers are arbitrary
precision, so modular products are exact without double-width tricks; the
primality test uses a fixed witness set that is deterministic for all
inputs below 2**64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Witnesses proven deterministic for every n < 2**64 (Sinclair's base set).
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_TWO64 = 1 << 64

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
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
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


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of n: ordered tuple of (prime, exponent) pairs.

    Construction re-verifies the defining invariants: primes strictly
    increasing, exponents >= 1, every base prime, product equal to n.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"factorization target must be >= 2, got {self.n}")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("prime factors must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factors multiply to {prod}, expected {self.n}")

    def divisors(self) -> list[int]:
        """All divisors of n in increasing order."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)


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


def factorize(n: int) -> Factorization:
    """Factor 2 <= n < 2**64: trial division, then verified Pollard rho."""
    if n < 2:
        raise ValueError(f"cannot factorize {n}")
    if n >= _TWO64:
        raise ValueError("factorize supports n < 2**64")
    target = n
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    # Whatever survives trial division is either prime or splits under rho;
    # every emitted factor is re-checked with the deterministic test.
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_LIMIT**2 or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _rho_factor(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(target, tuple(sorted(counts.items())))


def sieve_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [i for i in range(n + 1) if flags[i]]


_TRIAL_PRIMES = sieve_upto(_TRIAL_LIMIT)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi] via a segmented sieve."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    flags = bytearray([1]) * (hi - lo + 1)
    for p in sieve_upto(math.isqrt(hi)):
        start = max(p * p, (lo + p - 1) // p * p)
        flags[start - lo :: p] = b"\x00" * len(range(start, hi + 1, p))
    return [lo + i for i, f in enumerate(flags) if f]

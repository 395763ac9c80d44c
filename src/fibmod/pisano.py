"""Pisano periods and the related invariants of the Fibonacci sequence mod m.

For a modulus m, the sequence (u_n mod m) is purely periodic.  Three
invariants describe it:

  * period(m)      — least l >= 1 with (u_l, u_{l+1}) == (0, 1) mod m,
                     i.e. the order of the step matrix P in GL_2(Z/m);
  * rank(m)        — least z >= 1 with u_z == 0 mod m (rank of apparition);
  * zero count(m)  — zeros per period, always period/rank and one of 1, 2, 4.

Two independent routes compute the period: a direct linear scan
(pisano_direct) and the fast path (pisano_fast) that factors m, lifts each
prime period to the prime power, and takes the lcm.  The two must agree
everywhere; the test suites enforce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import factorize, is_prime
from .errors import AnomalyError
from .fib import fib_pair_mod

# period(m) <= 6*m for every m, with equality exactly at m = 2 * 5^k;
# the direct scan treats exceeding this bound as an impossible state.
_PERIOD_BOUND_FACTOR = 6

# Largest prime-power exponent probed when measuring p^a | u_{period(p)}.
# Every prime ever checked has exponent 1; exceeding the bound is reported,
# never silently truncated.
_LIFTING_SEARCH_BOUND = 8


@dataclass(frozen=True)
class PisanoProfile:
    """Period, rank of apparition, and zero count of one modulus."""

    m: int
    gamma: int
    alpha: int
    upsilon: int


@dataclass(frozen=True)
class PrimePowerPeriod:
    """Period data for p^e: the prime period, its lifting exponent, and
    the lifted period of the power."""

    p: int
    e: int
    gamma_p: int
    epsilon: int
    gamma_pe: int


def pisano_direct(m: int) -> int:
    """Period of the Fibonacci sequence mod m by direct iteration.

    Additions only; intended for m small enough that an O(period) scan is
    acceptable.  Serves as the oracle for the fast path.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if m == 1:
        return 1
    a, b = 0, 1
    limit = _PERIOD_BOUND_FACTOR * m
    l = 0
    while l < limit:
        a, b = b, (a + b) % m
        l += 1
        if a == 0 and b == 1:
            return l
    raise AnomalyError(f"no period found for m={m} within {limit} steps")


@lru_cache(maxsize=None)
def prime_period(p: int) -> int:
    """Period of a prime modulus without iterating the full cycle.

    For p not in {2, 5} the period divides p - 1 when p = +-1 mod 5 and
    2*(p + 1) otherwise, so it is found by order reduction over the
    divisor lattice of that bound.  A bound failure would contradict the
    classification and raises AnomalyError.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 3
    if p == 5:
        return 20
    bound = p - 1 if p % 5 in (1, 4) else 2 * (p + 1)
    if fib_pair_mod(bound, p) != (0, 1):
        raise AnomalyError(f"period of {p} does not divide its divisor bound {bound}")
    t = bound
    for q, _ in factorize(bound).factors:
        while t % q == 0 and fib_pair_mod(t // q, p) == (0, 1):
            t //= q
    return t


@lru_cache(maxsize=None)
def lifting_exponent(p: int) -> int:
    """Largest a with p^a dividing u_{period(p)}.

    Found by evaluating u_{period(p)} mod p^(a+1) for increasing a.  The
    value controls how the period lifts to prime powers; it is 1 for every
    prime ever examined (a larger value at p would make p a Wall-Sun-Sun
    prime).
    """
    gamma_p = prime_period(p)
    for a in range(1, _LIFTING_SEARCH_BOUND + 1):
        if fib_pair_mod(gamma_p, p ** (a + 1))[0] != 0:
            return a
    raise AnomalyError(
        f"p^{_LIFTING_SEARCH_BOUND + 1} divides u_period(p) for p={p}; "
        "search bound exceeded"
    )


def prime_power_period(p: int, e: int) -> PrimePowerPeriod:
    """Period of p^e via the lifting rule.

    For odd p: period(p^e) = period(p) while e <= lifting exponent, and
    grows by a factor p per further power.  p = 2 does not fit the odd
    rule's hypotheses and is special-cased to period(2^e) = 3 * 2^(e-1),
    which the direct scan confirms.
    """
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return PrimePowerPeriod(p=2, e=e, gamma_p=3, epsilon=1, gamma_pe=3 << (e - 1))
    gamma_p = prime_period(p)
    eps = lifting_exponent(p)
    gamma_pe = gamma_p if e <= eps else p ** (e - eps) * gamma_p
    return PrimePowerPeriod(p=p, e=e, gamma_p=gamma_p, epsilon=eps, gamma_pe=gamma_pe)


@lru_cache(maxsize=1 << 16)
def pisano_fast(m: int) -> int:
    """Period of m >= 2 as the lcm of its prime-power periods."""
    if m < 2:
        raise ValueError(f"pisano_fast requires m >= 2, got {m}")
    return math.lcm(*[prime_power_period(p, e).gamma_pe for p, e in factorize(m).factors])


def _rank_given_period(m: int, gamma: int) -> int:
    # the rank divides the period, so only divisors of gamma need testing
    for d in factorize(gamma).divisors() if gamma > 1 else [1]:
        if fib_pair_mod(d, m)[0] == 0:
            return d
    raise AnomalyError(f"u_period != 0 mod {m}")  # pragma: no cover


def rank_of_apparition(m: int) -> int:
    """Least z >= 1 with u_z == 0 mod m, via the divisors of the period."""
    if m < 2:
        raise ValueError(f"rank_of_apparition requires m >= 2, got {m}")
    return _rank_given_period(m, pisano_fast(m))


def zero_count(m: int) -> int:
    """Zeros of (u_i mod m) per period, computed as period/rank."""
    if m < 2:
        raise ValueError(f"zero_count requires m >= 2, got {m}")
    gamma = pisano_fast(m)
    return gamma // _rank_given_period(m, gamma)


def zero_count_direct(m: int) -> int:
    """Zeros per period counted by scanning one full period; test oracle."""
    if m < 2:
        raise ValueError(f"zero_count_direct requires m >= 2, got {m}")
    gamma = pisano_fast(m)
    a, b = 0, 1
    zeros = 0
    for _ in range(gamma):
        if a == 0:
            zeros += 1
        a, b = b, (a + b) % m
    return zeros


def profile(m: int) -> PisanoProfile:
    """Full (period, rank, zero count) profile of a modulus."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if m == 1:
        return PisanoProfile(m=1, gamma=1, alpha=1, upsilon=1)
    gamma = pisano_fast(m)
    alpha = _rank_given_period(m, gamma)
    return PisanoProfile(m=m, gamma=gamma, alpha=alpha, upsilon=gamma // alpha)

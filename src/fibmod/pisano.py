"""Pisano periods and the related invariants of the Fibonacci sequence mod m.

For a modulus m, the sequence (u_n mod m) is purely periodic.  Three
invariants describe it:

  * period(m)      — least l >= 1 with (u_l, u_{l+1}) == (0, 1) mod m,
                     i.e. the order of the step matrix P in GL_2(Z/m);
  * rank(m)        — least z >= 1 with u_z == 0 mod m (rank of apparition);
  * zero count(m)  — zeros per period, always period/rank and one of 1, 2, 4.

Two independent routes compute all three.  The direct route
(profile_direct) reads them from one linear scan of (u_l, u_{l+1}); the
fast route (profile) factors m, lifts each prime period to the prime power
by one rule for every prime, 2 included, takes the lcm, and reads the zero
count, hence the rank, from which of u_{period/4}, u_{period/2}, u_{period}
is the first zero mod m.  Those indices are one fast-doubling ladder mod m
at the period over 2^k (k = min(2, v_2(period))) and its k doublings; in
the same way prime_period reads its premise and every halving of its bound
from one ladder's doublings.  verify holds all three fast values against
the direct scan, as do the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import factorize, is_prime, two_adic_split
from .errors import AnomalyError
from .fib import _doublings, fib_pair_mod

# period(m) <= 6*m for every m, with equality exactly at m = 2 * 5^k;
# the direct scan treats exceeding this bound as an impossible state.
_PERIOD_BOUND_FACTOR = 6

# Largest prime-power exponent probed when measuring p^a | u_{period(p)}.
# Every prime ever checked has exponent 1; exceeding the bound is reported,
# never silently truncated.
_LIFTING_SEARCH_BOUND = 8

# Entries per per-prime memo (prime_period, lifting_exponent, _prime_zero_count):
# bounded so a long scan keeps flat memory, and small, as a bounded lru_cache
# entry costs about 56 B more than an unbounded one.  _prime_zero_count holds a
# small int per prime, ~92 B an entry (1.4 MiB full); a PisanoProfile per prime
# would take ~4.1 MiB.  Per-modulus values are not memoized: each is computed
# from its caller's one factorization of the modulus.
_CACHE_SIZE = 1 << 14


@dataclass(frozen=True)
class PisanoProfile:
    """Period, rank of apparition, and zero count of one modulus."""

    m: int
    gamma: int
    alpha: int
    upsilon: int


def profile_direct(m: int) -> PisanoProfile:
    """Profile of m from one scan of the pairs: the period is the first
    return to (0, 1), the rank the first zero, the zero count the zeros up
    to that return.  Additions only and no step shared with the fast route;
    the oracle for m small enough that an O(period) scan is acceptable.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    one = 1 % m
    a, b = one, one  # (u_l, u_{l+1}) mod m at l = 1
    alpha = zeros = 0
    limit = _PERIOD_BOUND_FACTOR * m
    for l in range(1, limit + 1):
        if a == 0:
            zeros += 1
            alpha = alpha or l
            if b == one:
                return PisanoProfile(m=m, gamma=l, alpha=alpha, upsilon=zeros)
        a, b = b, (a + b) % m
    raise AnomalyError(f"no period found for m={m} within {limit} steps")


def pisano_direct(m: int) -> int:
    """Period of the Fibonacci sequence mod m by direct iteration."""
    return profile_direct(m).gamma


def zero_count_direct(m: int) -> int:
    """Zeros per period counted by direct iteration; test oracle."""
    if m < 2:
        raise ValueError(f"zero_count_direct requires m >= 2, got {m}")
    return profile_direct(m).upsilon


def _legendre5(p: int) -> int:
    """chi = (p/5) for a prime p: 0 at p = 5, +1 for p = +-1, -1 for p = +-2 mod 5."""
    return (0, 1, -1, -1, 1)[p % 5]


@lru_cache(maxsize=_CACHE_SIZE)
def prime_period(p: int) -> int:
    """Period of a prime modulus without iterating the full cycle.

    The period divides a bound fixed by chi = (p/5): p - 1 when chi = 1,
    2*(p + 1) when chi = -1 and 4*p when chi = 0, so it is found by order
    reduction over the factors of that bound (p = 2 and p = 5 included).
    The premise and the halvings read one ladder at the bound's odd part and
    its doublings; each odd prime factor's test is a ladder of its own.
    It is the period layer's one primality check.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    chi = _legendre5(p)
    t = (p - chi) * {1: 1, -1: 2, 0: 4}[chi]
    # t = 2^v * odd, and P^(odd * 2^i) for i = 0, ..., v are one ladder at odd
    # and its v doublings: the premise reads the last, and the period's 2-part
    # is the first i where P^(odd * 2^i) is the identity
    v, odd = two_adic_split(t)
    pairs = _doublings(fib_pair_mod(odd, p), v, p)
    if pairs[v] != (0, 1):
        raise AnomalyError(f"order reduction premise fails: predicate false at {t}")
    gamma = odd << pairs.index((0, 1))
    for q, _ in factorize(t):
        while q != 2 and gamma % q == 0 and fib_pair_mod(gamma // q, p) == (0, 1):
            gamma //= q
    return gamma


@lru_cache(maxsize=_CACHE_SIZE)
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


def prime_power_period(p: int, e: int) -> int:
    """Period of p^e by the lifting rule p^max(0, e - eps) * period(p).

    eps is the lifting exponent of p, read only for e >= 2, where it can
    change the answer.  The rule holds for every prime: at p = 2 it gives
    3 * 2^(e-1), which the direct scan confirms.
    """
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    gamma_p = prime_period(p)
    return gamma_p if e == 1 else p ** max(0, e - lifting_exponent(p)) * gamma_p


def _period_from_factors(factors: tuple[tuple[int, int], ...]) -> int:
    """Period of the modulus with these (prime, exponent) factors: the lcm of
    its prime-power periods."""
    return math.lcm(*[prime_power_period(p, e) for p, e in factors])


def pisano_fast(m: int) -> int:
    """Period of m >= 2 as the lcm of its prime-power periods."""
    if m < 2:
        raise ValueError(f"pisano_fast requires m >= 2, got {m}")
    return _period_from_factors(factorize(m))


def profile(m: int) -> PisanoProfile:
    """Full (period, rank, zero count) profile of a modulus."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if m == 1:
        return PisanoProfile(m=1, gamma=1, alpha=1, upsilon=1)
    return _profile_with_period(m, pisano_fast(m))


def _profile_with_period(m: int, gamma: int) -> PisanoProfile:
    """Profile of m >= 2 from gamma, its period by the fast route; raises
    AnomalyError when gamma is not a period of m."""
    # u_t == 0 mod m exactly when the rank divides t, and period/rank is 1, 2
    # or 4 (Vinson), so the zero count is the first z with u_{period/z} == 0.
    # One ladder at period/2^k and its k doublings read all three indices.
    # With u_n == 0, P^n = u_{n+1} * I, so the pair at the period itself says
    # whether it is a period
    k = min(2, two_adic_split(gamma)[0])
    pairs = _doublings(fib_pair_mod(gamma >> k, m), k, m)
    u, b = pairs[k]
    if u != 0:
        raise AnomalyError(f"fast period {gamma} of m={m} is not a period: u_{gamma} != 0 mod m")
    if b != 1:
        raise AnomalyError(f"fast period {gamma} of m={m} is not a period: P^{gamma} = {b}*I mod m")
    upsilon = 1 << (k - next(i for i, pair in enumerate(pairs) if pair[0] == 0))
    return PisanoProfile(m=m, gamma=gamma, alpha=gamma // upsilon, upsilon=upsilon)


@lru_cache(maxsize=_CACHE_SIZE)
def _prime_zero_count(p: int) -> int:
    """Zero count of a prime, read once per prime at prime_period(p)."""
    return _profile_with_period(p, prime_period(p)).upsilon


def rank_of_apparition(m: int) -> int:
    """Least z >= 1 with u_z == 0 mod m: the period over the zero count."""
    if m < 2:
        raise ValueError(f"rank_of_apparition requires m >= 2, got {m}")
    return profile(m).alpha


def zero_count(m: int) -> int:
    """Zeros of (u_i mod m) per period, one of 1, 2, 4."""
    if m < 2:
        raise ValueError(f"zero_count requires m >= 2, got {m}")
    return profile(m).upsilon

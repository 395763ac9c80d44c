"""Good-number classification.

A modulus m >= 2 is *good* when P^(period(m)/2) is minus the identity over
Z/m, equivalently u_{period/2} == 0 and u_{period/2 +- 1} == -1 (mod m).
The notion lives on odd moduli: even m (including m = 2, whose period is
odd) are not good by definition.

Two routes decide goodness:

  * direct — compute the half-period matrix and compare with -Id;
  * fast   — factor m and inspect each prime p_i: m is good exactly when
    every p_i is a good prime (4 | period(p_i)) and the 2-adic valuations
    k_i of the period(p_i) all coincide (equivalently, coincide and are
    >= 2).

The fast route also ties goodness to the zero counts: a good prime has
zero count 2 or 4, all zero counts of a good m agree, and zero count 4 for
every prime factor forces goodness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import factorize, two_adic_split
from .errors import AnomalyError
from .fib import matrix_pow_mod
from .pisano import (
    PisanoProfile,
    _period_from_factors,
    _prime_zero_count,
    _profile_with_period,
    pisano_fast,
    prime_period,
    prime_power_period,
)


@dataclass(frozen=True)
class GoodPrimeEntry:
    """Per-prime evidence backing a goodness verdict."""

    p: int
    e: int
    gamma_p: int
    two_adic: int  # valuation k with 2^k || gamma_p
    good_prime: bool
    upsilon_p: int


@dataclass(frozen=True)
class GoodnessReport:
    m: int
    is_odd: bool
    gamma: int
    prime_entries: tuple[GoodPrimeEntry, ...]
    is_good: bool
    upsilon_m: int
    method: str  # "direct" | "fast" | "both"


def is_good_direct(m: int) -> bool:
    """Goodness by the defining test: half-period power equals -Id mod m.

    Goodness is an odd-modulus notion and even m are not good by
    definition.  (The exclusion must be explicit: for m = 2 mod 4 with a
    good odd part — 6, 10, 14, ... — the raw half-period matrix does equal
    -Id, because -Id collapses to Id mod 2.  The factorization criterion
    and the zero-count structure only cover odd m, so such m are excluded
    rather than classified.)
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if m % 2 == 0:
        return False
    return _half_period_is_negative_identity(m, pisano_fast(m))


def _half_period_is_negative_identity(m: int, gamma: int) -> bool:
    """The defining test for odd m of period gamma: P^(gamma/2) == -Id mod m."""
    # an odd period has no half period
    return gamma % 2 == 0 and matrix_pow_mod(gamma // 2, m).is_negative_identity


def is_good_prime(p: int) -> bool:
    """An odd prime is good iff 4 divides its period."""
    if p == 2:
        raise ValueError(f"good-prime test needs an odd prime, got {p}")
    return prime_period(p) % 4 == 0  # prime_period rejects non-primes


def _prime_entry(p: int, e: int) -> GoodPrimeEntry:
    gamma_p = prime_period(p)
    return GoodPrimeEntry(
        p=p,
        e=e,
        gamma_p=gamma_p,
        two_adic=two_adic_split(gamma_p)[0],
        good_prime=(p != 2 and gamma_p % 4 == 0),
        upsilon_p=_prime_zero_count(p),
    )


def is_good_fast(m: int) -> GoodnessReport:
    """Goodness from the factorization criterion, with per-prime evidence."""
    return goodness_report(m, "fast")


def goodness_report(m: int, method: str = "both") -> GoodnessReport:
    """Report via the chosen route; "both" cross-checks fast against direct.

    One factorization of m yields the per-prime entries and the period, and
    the direct route tests that period.  A disagreement between the routes
    would falsify the classification criterion and raises AnomalyError.
    """
    if method not in ("direct", "fast", "both"):
        raise ValueError(f"unknown method {method!r}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    factors = factorize(m)
    # the profile raises if that lcm is no period of m
    return _report(factors, _profile_with_period(m, _period_from_factors(factors)), method)


def _report(factors: tuple[tuple[int, int], ...], prof: PisanoProfile, method: str) -> GoodnessReport:
    """goodness_report(prof.m, method) from the factors of m and its fast
    profile, which the caller took: the per-prime entries and the verdicts
    of the chosen routes, with no factorization and no period of m."""
    m, gamma = prof.m, prof.gamma
    entries = tuple(_prime_entry(p, e) for p, e in factors)
    is_odd = m % 2 == 1
    ks = {entry.two_adic for entry in entries}
    good = is_odd and all(entry.good_prime for entry in entries) and len(ks) == 1
    if method != "fast":
        direct = is_odd and _half_period_is_negative_identity(m, gamma)
        if method == "both" and direct != good:
            raise AnomalyError(
                f"goodness routes disagree at m={m}: direct={direct}, fast={good}"
            )
        good = direct
    return GoodnessReport(
        m=m,
        is_odd=is_odd,
        gamma=gamma,
        prime_entries=entries,
        is_good=good,
        upsilon_m=prof.upsilon,
        method=method,
    )


def zero_count_odd(m: int) -> int:
    """Zero count of odd m >= 3 from its prime factorization.

    Case formula: the shared per-prime zero count when all agree, else 2.
    Cross-checked against period(m) / lcm of the prime-power ranks; the two
    must match, and both equal the scanned count.  Both read the one
    factorization of m: each prime power's rank comes from its lifted period.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"zero_count_odd needs odd m >= 3, got {m}")
    factors = factorize(m)
    ranks = [_profile_with_period(p**e, prime_power_period(p, e)).alpha for p, e in factors]
    return _zero_count_odd(m, factors, _period_from_factors(factors), ranks)


def _zero_count_odd(m: int, factors: tuple[tuple[int, int], ...], gamma: int, ranks: list[int]) -> int:
    """zero_count_odd(m) from the factors of m, its fast period gamma and the
    rank of each p^e of factors, in their order, which the caller took."""
    per_prime = [_prime_zero_count(p) for p, _ in factors]
    case_value = per_prime[0] if len(set(per_prime)) == 1 else 2
    lattice_value = gamma // math.lcm(*ranks)
    if case_value != lattice_value:
        raise AnomalyError(
            f"zero-count formulas disagree at m={m}: "
            f"case={case_value}, lattice={lattice_value}"
        )
    return case_value


def period_divisor_class(p: int) -> str:
    """Which classical divisor bound the period of p satisfies.

    "P1" when period(p) | p - 1, "P2" when period(p) | 2*(p + 1); every
    prime other than 5 is expected to land in exactly one class, but the
    raw outcome ("both" / "neither" included) is reported rather than
    assumed.
    """
    if p == 5:
        raise ValueError("p = 5 is excluded from the divisor classes")
    gamma = prime_period(p)
    in_p1 = (p - 1) % gamma == 0
    in_p2 = (2 * (p + 1)) % gamma == 0
    if in_p1 and in_p2:
        return "both"
    if in_p1:
        return "P1"
    if in_p2:
        return "P2"
    return "neither"


def zero_count_period_pattern(p: int) -> str:
    """How the zero count of an odd prime pins the 2-part of its period.

    zero count 1 -> 2 || period; 2 -> 8 | period; 4 -> 4 || period.
    Returns the pattern label; a violation raises AnomalyError.
    """
    if p == 2:
        raise ValueError(f"pattern check needs an odd prime, got {p}")
    # _prime_zero_count reaches prime_period first, which rejects a non-prime
    upsilon, k = _prime_zero_count(p), two_adic_split(prime_period(p))[0]
    if upsilon == 1 and k == 1:
        return "v1_pattern"
    if upsilon == 2 and k >= 3:
        return "v2_pattern"
    if upsilon == 4 and k == 2:
        return "v4_pattern"
    raise AnomalyError(f"zero count {upsilon} with 2-adic valuation {k} at p={p}")

"""Pisano periods and the related invariants of the Fibonacci sequence mod m.

For a modulus m, the sequence (u_n mod m) is purely periodic.  Three
invariants describe it:

  * period(m)      — least l >= 1 with (u_l, u_{l+1}) == (0, 1) mod m,
                     i.e. the order of the step matrix P in GL_2(Z/m);
  * rank(m)        — least z >= 1 with u_z == 0 mod m (rank of apparition);
  * zero count(m)  — zeros per period, always period/rank and one of 1, 2, 4.

Every per-modulus route takes m >= 2, the paper's N without {0, 1}, and
refuses any other m once, where it starts, with "modulus must be >= 2, got
m": here in profile_direct, profiles_direct and pisano_fast, and the
functions built on them inherit that check.

Two independent routes compute all three.  The direct route
(profile_direct) reads them from one linear scan of (u_l, u_{l+1}), two
terms a pass by additions alone: a sum that reaches m has m subtracted,
and only there is it tested for zero, which is exact since a sum of two
residues that are never both 0 is 0 mod m only when it equals m; the
fast route (profile) factors m, lifts each prime period to the prime power
by one rule for every prime, 2 included, takes the lcm, and reads the zero
count, hence the rank, from which of u_{period/4}, u_{period/2}, u_{period}
is the first zero mod m.  Those indices are one fast-doubling ladder mod m
at the period over 2^k (k = min(2, v_2(period))) and its k doublings; in
the same way prime_period reads its premise and every halving of its bound
from one ladder's doublings.  verify holds all three fast values against
the direct scan, as do the tests.

verify scans many moduli, and profiles_direct runs that same scan on up to
_LANES moduli at once, SIMD within a register: each modulus has a lane of
bits in each of a few Python ints, one big-int addition advances every
lane by a term, and masks built from each lane's top bit subtract m where
a sum reached it.  Python code runs only where a lane's residue becomes 0.
Over [2, 1e4] in verify's chunks it takes about a sixth of the time of
profile_direct, which stays the one-modulus route and its test reference.

A prime p with chi = (p/5) = +1 takes no ladder: 5 has a square root s mod
p, found deterministically (one pow for p = 3 mod 4, Atkin's formula for
p = 5 mod 8, Tonelli-Shanks with the least non-residue for p = 1 mod 8)
and lifted to p^2 by one Hensel step.  P then has the eigenvalues
phi = (1 + s)/2 and psi = -1/phi, so period(p) = lcm(ord_p(phi), 2), found
by order reduction with builtin pow, and u_n = (phi^n - psi^n)/s mod p^2
gives the Wall-Sun-Sun index residue u_{p-1} mod p^2 from x = phi^(p-1):
(x - 1/x)/s.  Primes with chi = -1, and 2 and 5, keep the ladders.

Every prime's period is reduced over the factors of its bound t.  A scan
block gets them for all its primes from one strike pass
(_bound_factor_sieve): the odd primes up to a bound B, read from arith's
base-prime array, strike the block's neighbours p - chi, and only a
cofactor of at least (B + 1)^2 goes to is_prime and rho.  The factors,
and each chi = +1 prime's root of 5, sit in the block store only while the
block is checked (_block_facts), and prime_period takes its keys, which the
window sieve proved, as prime; any other p meets is_prime and factorize.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count, islice

from .arith import _base_primes, _rough_factors, factorize, is_prime, two_adic_split
from .errors import AnomalyError
from .fib import _doublings, fib_pair_mod

# period(m) <= 6*m for every m, with equality exactly at m = 2 * 5^k;
# the direct scan treats exceeding this bound as an impossible state.
_PERIOD_BOUND_FACTOR = 6

# Moduli profiles_direct scans at once.  Over [2, 1e4] in calls of 2048
# moduli, 192 lanes took 0.23 s against 0.25 for 128 or 256 and 0.27 for
# 384, and profile_direct took 1.6 s (2-vCPU VM, CPython 3.11.7).
_LANES = 192

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

# The odd primes up to this bound, read from arith's base-prime array,
# strike a scan block's period bounds; the pass is capped at the isqrt of
# the block's largest neighbour, where every cofactor is 1 or a prime.  At
# p ~ 1e12, 2^18 strikes a block of 1e4 in ~20-24 us per prime against
# ~25-36 for 2^16, with a fifth of the rho calls, and the array holds its
# primes in 4 bytes each.
_SIEVE_LIMIT = 1 << 18

# The block store: each proven prime of the scan block mapped to its bound's
# factors and, for chi = +1, its root of 5 mod p^2 (None otherwise).  Only
# _block_facts fills it, one block at a time, and empties it in place.
_BLOCK_STORE: dict[int, tuple[tuple[tuple[int, int], ...], int | None]] = {}


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

    Two residues x, y start at u_1 = u_2 = 1 and each pass advances both,
    x += y then y += x, subtracting m from a sum that reaches m.  Two
    consecutive residues are never both 0, so each sum lies in [1, 2m - 2]
    and is 0 mod m exactly when it equals m: the zero test sits in the
    subtraction branch.  At a zero u_l the next term u_{l+1} = u_{l-1} is
    the other residue, so the return to (0, 1) is that residue being 1.
    The scan reads u_3 ... u_limit, limit = 6m being even, and u_1 = u_2 = 1
    are no zero for m >= 2.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    x = y = 1  # u_1, u_2; after a pass's two sums, u_l and u_{l+1}
    alpha = zeros = 0
    limit = _PERIOD_BOUND_FACTOR * m
    for l in range(3, limit, 2):
        x += y
        if x >= m:
            x -= m
            if not x:
                zeros += 1
                alpha = alpha or l
                if y == 1:
                    return PisanoProfile(m=m, gamma=l, alpha=alpha, upsilon=zeros)
        y += x
        if y >= m:
            y -= m
            if not y:
                zeros += 1
                alpha = alpha or l + 1
                if x == 1:
                    return PisanoProfile(m=m, gamma=l + 1, alpha=alpha, upsilon=zeros)
    raise AnomalyError(f"no period found for m={m} within {limit} steps")


def profiles_direct(moduli) -> list[PisanoProfile]:
    """profile_direct(m) for each of moduli, all m >= 2, in their order,
    with the same values; but up to _LANES moduli are scanned at once, as
    the lanes of Python ints.  A modulus below 2 raises ValueError before
    any lane runs, and a lane past its bound raises profile_direct's
    AnomalyError as soon as it is seen.

    profile_direct stays the one-modulus route: over [2, 3000] one lane
    per call took 3-6 times as long as profile_direct, and the lanes pay
    off only across many moduli."""
    moduli = list(moduli)
    if not moduli:
        return []
    if (low := min(moduli)) < 2:
        raise ValueError(f"modulus must be >= 2, got {low}")
    return _lane_scan(moduli)


def _lane_scan(moduli: list[int]) -> list[PisanoProfile]:
    """The direct profile of each of moduli, all m >= 2, in their order.

    Each lane is w = max(m).bit_length() + 2 bits of X and Y, the two
    residues of its modulus, of M, the modulus, and of K, 2^(w-1) - m.  A
    term is one X += Y for every lane; bit w - 1 of X + K marks the lanes
    where the sum reached m, and m is taken from those alone.  A sum stays
    below 2m < 2^(w-1), so no lane carries into the next: shifts, masks and
    additions, and no modular multiplication.  Then X and Y swap roles.
    As in profile_direct, a residue becomes 0 only where a sum equals m,
    and its lane's other residue being 1 is the return to (0, 1); Python
    code runs only at such a zero.

    Lanes start at (u_0, u_1) = (0, 1) with the largest moduli, so that the
    longest scans start first.  A lane that returns holds (0, 1), its next
    modulus's u_0 and u_{-1}, and takes that modulus in M and K; once none
    is left it is cleared and retired.  A lane that passes its bound, the
    last even term up to _PERIOD_BOUND_FACTOR * m as in profile_direct,
    raises at its next zero, which comes at the latest one period on.
    """
    out: list = [None] * len(moduli)
    # positions of the moduli left to scan, popped from the end: descending m
    queue = sorted(range(len(moduli)), key=moduli.__getitem__)
    w = moduli[queue[-1]].bit_length() + 2
    top = w - 1
    lane = (1 << w) - 1
    lanes = min(_LANES, len(queue))
    ones = ((1 << (lanes * w)) - 1) // lane  # 1 in every lane
    flags = ones << top  # bit w - 1 of every lane
    below = ones * (lane >> 1)  # 2^(w-1) - 1 in every lane
    factor = _PERIOD_BOUND_FACTOR
    # per lane: the position scanned, the term of its u_0, the last term
    # in its bound, and the zeros and first zero so far
    pos, base, last, zeros, alpha = ([0] * lanes for _ in range(5))

    def load(i: int, t: int) -> int:
        j = queue.pop()
        pos[i], base[i], last[i] = j, t, t + (factor * moduli[j] & ~1)
        zeros[i] = alpha[i] = 0
        return moduli[j]

    M = K = 0
    for i in range(lanes):
        m = load(i, 0)
        M |= m << (i * w)
        K |= ((1 << top) - m) << (i * w)
    X, Y, t = 0, ones, 1  # X is written next; t is the term last written
    active = flags
    while active:
        X += Y
        wrapped = (X + K) & flags
        X -= M & (wrapped - (wrapped >> top))
        t += 1
        nonzero = (X + below) & flags
        if nonzero != active:
            hit = active ^ nonzero
            while hit:
                low = hit & -hit
                hit ^= low
                i = low.bit_length() // w - 1
                shift = i * w
                j = pos[i]
                m = moduli[j]
                if t > last[i]:
                    raise AnomalyError(f"no period found for m={m} within {factor * m} steps")
                zeros[i] += 1
                alpha[i] = alpha[i] or t - base[i]
                if Y >> shift & lane != 1:
                    continue
                out[j] = PisanoProfile(m=m, gamma=t - base[i], alpha=alpha[i], upsilon=zeros[i])
                if queue:
                    after = load(i, t)
                    M += (after - m) << shift
                    K += (m - after) << shift
                else:
                    M -= m << shift
                    K -= ((1 << top) - m) << shift
                    Y -= 1 << shift
                    active ^= low
        X, Y = Y, X
    return out


def pisano_direct(m: int) -> int:
    """Period of the Fibonacci sequence mod m by direct iteration."""
    return profile_direct(m).gamma


def zero_count_direct(m: int) -> int:
    """Zeros per period counted by direct iteration; test oracle."""
    return profile_direct(m).upsilon


def _legendre5(p: int) -> int:
    """chi = (p/5) for a prime p: 0 at p = 5, +1 for p = +-1, -1 for p = +-2 mod 5."""
    return (0, 1, -1, -1, 1)[p % 5]


@lru_cache(maxsize=_CACHE_SIZE)
def prime_period(p: int) -> int:
    """Period of a prime modulus without iterating the full cycle.

    The period divides a bound fixed by chi = (p/5): p - 1 when chi = 1,
    2*(p + 1) when chi = -1 and 4*p when chi = 0, so it is found by order
    reduction over the factors of that bound (p = 2 and p = 5 included),
    read from the scan block's store or from factorize.  The reduction
    reads only the odd ones, so for chi = -1 factorize takes p + 1, below
    2^64 for every p < 2^64, as 2*(p + 1) need not be.  For chi = 1 the
    reduction runs on the eigenvalue phi with builtin pow.  Otherwise the
    premise and the halvings read one ladder at the bound's odd part and
    its doublings, and each odd prime factor's test is a ladder of its own.
    A p outside the block store meets the period layer's one primality
    check, is_prime.
    """
    facts = _BLOCK_STORE.get(p)
    if facts is None and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    chi = _legendre5(p)
    t = (p - chi) * {1: 1, -1: 2, 0: 4}[chi]
    factors, root = facts or (factorize(t >> (chi == -1)), None)
    if chi == 1:
        return _eigen_period(p, factors, _root5(p) if root is None else root)
    # t = 2^v * odd, and P^(odd * 2^i) for i = 0, ..., v are one ladder at odd
    # and its v doublings: the premise reads the last, and the period's 2-part
    # is the first i where P^(odd * 2^i) is the identity
    v, odd = two_adic_split(t)
    pairs = _doublings(fib_pair_mod(odd, p), v, p)
    if pairs[v] != (0, 1):
        raise AnomalyError(f"order reduction premise fails: predicate false at {t}")
    gamma = odd << pairs.index((0, 1))
    for q, _ in factors:
        while q != 2 and gamma % q == 0 and fib_pair_mod(gamma // q, p) == (0, 1):
            gamma //= q
    return gamma


def _eigen_period(p: int, factors: tuple[tuple[int, int], ...], s: int) -> int:
    """Period of a chi = +1 prime p from s, a square root of 5 mod p, and
    the factors of its bound p - 1.

    P has the eigenvalues phi = (1 + s)/2 and psi = -1/phi in F_p, so
    P^n = I exactly when phi^n = 1 and n is even: the period is the least
    even n with phi^n = 1.
    """
    phi = (1 + s) * ((p + 1) // 2) % p
    # as for the ladder, phi^(odd * 2^i) for i = 0, 1, ... are one pow and
    # squarings, and phi^(p - 1) = 1 (Fermat) ends them by i = v_2(p - 1)
    i, odd = 0, two_adic_split(p - 1)[1]
    x = pow(phi, odd, p)
    while x != 1:
        x, i = x * x % p, i + 1
    gamma = odd << max(1, i)
    for q, _ in factors:
        while q != 2 and gamma % q == 0 and pow(phi, gamma // q, p) == 1:
            gamma //= q
    return gamma


def _root5(p: int) -> int:
    """s with s^2 == 5 mod p^2, for a prime p with chi = +1: a root mod p,
    lifted by one Hensel step, and checked.

    5 is a square mod p exactly when P^(p-1) = I mod p, so a root that
    fails mod p is the premise of p's order reduction failing.
    """
    s = _sqrt5_mod_p(p)
    if s * s % p != 5:
        raise AnomalyError(f"order reduction premise fails: predicate false at {p - 1}")
    s += (5 - s * s) // p * pow(2 * s, -1, p) % p * p
    if (s * s - 5) % (p * p):
        raise AnomalyError(f"Hensel lift fails: {s}^2 != 5 mod {p}^2")
    return s


def _sqrt5_mod_p(p: int) -> int:
    """A square root of 5 mod a prime p > 5 with chi = +1, deterministically:
    one pow for p = 3 mod 4, Atkin's formula for p = 5 mod 8, and
    Tonelli-Shanks with the least quadratic non-residue for p = 1 mod 8.
    For a p where 5 is no square, a value whose square is not 5."""
    if p % 4 == 3:
        return pow(5, (p + 1) // 4, p)
    if p % 8 == 5:
        v = pow(10, (p - 5) // 8, p)
        return 5 * v * (10 * v * v - 1) % p
    m, q = two_adic_split(p - 1)
    z = next(n for n in count(3) if _jacobi(n, p) == -1)  # 2 is a square mod p = 1 mod 8
    c = pow(z, q, p)
    u = pow(5, (q - 1) // 2, p)
    r, t = 5 * u % p, 5 * u * u % p  # 5^((q+1)/2) and 5^q
    while t != 1:
        i, t2 = 0, t
        while t2 != 1 and i < m:
            t2, i = t2 * t2 % p, i + 1
        if i == m:  # t has order 2^m: 5 is no square mod p
            break
        b = c
        for _ in range(m - i - 1):
            b = b * b % p
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n >= 1, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _index_residue(p: int) -> int:
    """u_{p-1} mod p^2 for a prime p with chi = +1, without a ladder.

    With s^2 == 5 mod p^2, u_n == (phi^n - psi^n)/s mod p^2, and
    psi^n = phi^-n for even n; so with x = phi^(p-1) mod p^2 the residue is
    (x - 1/x)/s = (x^2 - 1)/(x*s).
    """
    facts = _BLOCK_STORE.get(p)
    s = _root5(p) if facts is None else facts[1]
    p2 = p * p
    x = pow((1 + s) * ((p2 + 1) // 2), p - 1, p2)
    return (x * x - 1) * pow(x * s, -1, p2) % p2


def _bound_factor_sieve(primes: list[int]) -> dict[int, tuple[tuple[int, int], ...]]:
    """factorize(t) of the period bound t of each prime but 5 of a scan
    block's sorted primes, by one strike pass.

    t is the neighbour n = p - chi, doubled when chi = -1, so t's odd part is
    n's.  The odd primes up to B = min(_SIEVE_LIMIT, isqrt(max n)) strike the
    neighbours; a cofactor left below (B + 1)^2 is 1 or a prime, and a
    larger one goes to is_prime and rho.  Two primes two apart can share a
    neighbour (17 + 1 = 19 - 1) with different bounds (36, 18), so each
    result is keyed by its prime and takes its own power of 2.
    """
    neighbours = {p: (p - chi, chi) for p in primes if (chi := _legendre5(p))}
    if not neighbours:
        return {}
    lo, hi = primes[0] - 1, primes[-1] + 1
    bound = min(_SIEVE_LIMIT, math.isqrt(hi))
    splits = {n: two_adic_split(n) for n, _ in neighbours.values()}
    rest = {n: odd for n, (_, odd) in splits.items()}
    found: dict[int, list[tuple[int, int]]] = {n: [] for n in rest}
    marks = bytearray(hi - lo + 1)
    for n in rest:
        marks[n - lo] = 1
    base_primes = _base_primes(bound)
    stop = bisect_right(base_primes, bound)
    width = len(marks)
    narrow = bisect_right(base_primes, width, 1, stop)
    # (q, offset) of each neighbour an odd base prime divides, q ascending; a
    # q wider than the block has at most one multiple in it
    hits = [
        (q, i)
        for q in islice(base_primes, 1, narrow)
        for first in [(-lo) % q]
        for i in compress(range(first, width, q), marks[first::q])
    ]
    hits += [(q, i) for q in islice(base_primes, narrow, stop) if (i := (-lo) % q) < width and marks[i]]
    for q, i in hits:
        n = lo + i
        m, e = rest[n] // q, 1
        while m % q == 0:
            m, e = m // q, e + 1
        rest[n] = m
        found[n].append((q, e))
    for n, m in rest.items():
        if m > 1:
            found[n].extend(sorted(_rough_factors(m, bound).items()))
    return {
        p: ((2, splits[n][0] + (chi == -1)), *found[n]) for p, (n, chi) in neighbours.items()
    }


@contextmanager
def _block_facts(primes: list[int]):
    """Hold the facts of a scan block's proven primes in the block store
    while the block is checked; empty it on exit, also when anything raises."""
    try:
        _BLOCK_STORE.update(
            (p, (factors, _root5(p) if _legendre5(p) == 1 else None))
            for p, factors in _bound_factor_sieve(primes).items()
        )
        yield
    finally:
        _BLOCK_STORE.clear()


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
        raise ValueError(f"modulus must be >= 2, got {m}")
    return _period_from_factors(factorize(m))


def profile(m: int) -> PisanoProfile:
    """Full (period, rank, zero count) profile of a modulus m >= 2."""
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
    return profile(m).alpha


def zero_count(m: int) -> int:
    """Zeros of (u_i mod m) per period, one of 1, 2, 4."""
    return profile(m).upsilon

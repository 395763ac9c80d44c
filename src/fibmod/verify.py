"""Property suites: machine-checkable audits of the library's invariants.

Each suite runs a family of checks over bounded ranges and reports one
PropertyResult per property, carrying counterexamples when a check fails.
The CLI exposes them via `fibmod verify`; they are the same statements the
test suite pins down, packaged for ad-hoc, larger-range runs.

The brute-force direct scans run on forked worker processes, one per CPU
this process may use and no more than there are chunks of moduli to scan,
or here, as they are read, where that is one; the fast routes they audit
run here and share no cache with them, as the direct scans hold none.
Each chunk of _DIRECT_CHUNK moduli is one call of pisano.profiles_direct,
which scans up to 192 of them at once as the lanes of Python ints.  At
--max 10000 on 2 CPUs the workers' scans take about 0.25-0.45 s of CPU
and the calling process about 0.35-0.7 s, for about 0.4-0.8 s of wall
(tools/verify_split.py): the checks run here are the critical path.  A
run opens at most one pool and queues every chunk on it at the start, so
the workers scan while every check that needs no pass runs here.  Then
one pass takes each modulus in m order, as its chunk arrives: it factors
m once and takes its fast period and profile once, and hands that record
to every suite's checks of m, against m's scan among them.  Suites share
each modulus's one fast record, never each other's verdicts.  Each chunk
comes back as one flat array of (m, gamma, alpha, upsilon), about 32 B
per modulus; an early exit cancels the queued chunks.
"""

from __future__ import annotations

import math
import os
import random
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

from . import classify, pisano, wss
from .arith import factorize, sieve_upto
from .errors import AnomalyError
from .fib import (
    binomial_expansion_rhs,
    doubling_rhs,
    fib_exact,
    fib_pair_mod,
    matrix_pow_mod,
    subtraction_rhs,
)
from .pool import ordered_map

SUITE_NAMES = ("identities", "pisano", "classify", "wss", "all")

_MODULUS_POOL = (2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 25, 36, 97, 144, 1000, 999983, 10**9 + 7)
# moduli per worker call of the direct scans: enough that the lanes of
# profiles_direct stay full (over [2, 1e4] they took 0.23 s in chunks of
# 2048, 0.27 s in chunks of 1024), and at --max 1e4 five chunks for two workers
_DIRECT_CHUNK = 2048


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    checked: int
    failures: tuple[str, ...]  # at most a few counterexamples


class _Property:
    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures: list[str] = []

    def check(self, ok: bool, detail: str) -> None:
        self.checked += 1
        if not ok and len(self.failures) < 3:
            self.failures.append(detail)

    def result(self) -> PropertyResult:
        return PropertyResult(
            name=self.name,
            passed=not self.failures,
            checked=self.checked,
            failures=tuple(self.failures),
        )


def _scan_chunk(moduli) -> array:
    """The direct profile of each of moduli, flat as (m, gamma, alpha, upsilon):
    an array comes back from a worker far smaller than PisanoProfile objects."""
    flat = array("q")
    for prof in pisano.profiles_direct(moduli):
        flat.extend((prof.m, prof.gamma, prof.alpha, prof.upsilon))
    return flat


def _profiles(chunks):
    """The profiles of each scanned chunk, in chunk order."""
    for flat in chunks:
        for i in range(0, len(flat), 4):
            yield pisano.PisanoProfile(*flat[i : i + 4])


@contextmanager
def _direct_scans(moduli):
    """Each of moduli with its direct profile, in their order.

    Every chunk of _DIRECT_CHUNK moduli is handed to a pool of worker
    processes on entry, where two can run, so they scan while the caller
    does the work that needs no scan; then every check against the scans
    runs on each modulus in turn, as its chunk arrives, and a chunk's array
    is dropped once it is read.
    """
    starts = range(0, len(moduli), _DIRECT_CHUNK)
    chunks = (moduli[i : i + _DIRECT_CHUNK] for i in starts)
    with ordered_map(_scan_chunk, chunks, len(os.sched_getaffinity(0)), len(starts)) as scanned:
        yield zip(moduli, _profiles(scanned), strict=True)


def suite_identities(max_value: int = 3000, seed: int = 0) -> list[PropertyResult]:
    """Fibonacci identity and matrix-route audits against the defining
    recurrence, carried mod the lcm of the moduli they are read at."""
    rng = random.Random(seed)
    # the defining recurrence mod L, the lcm of the pool: each pool modulus
    # divides L, so u[n] % m is u_n mod m, from an int of 77 bits where
    # u_6002 itself has 4,166
    lcm = math.lcm(*_MODULUS_POOL)
    u = [0, 1]
    while len(u) <= 2 * max_value + 2:
        u.append((u[-1] + u[-2]) % lcm)
    props = [_Property(name) for name in (
        "matrix-entries-match-exact",
        "matrix-agrees-with-fast-doubling",
        "cassini-determinant",
        "doubling-identity",
        "subtraction-identity",
        "binomial-expansion-identity",
    )]
    entries, doubling_route, cassini, doubling, subtraction, binomial = props

    for _ in range(400):
        n = rng.randrange(0, max_value + 1)
        m = rng.choice(_MODULUS_POOL)
        mat = matrix_pow_mod(n, m)
        want_prev = 1 % m if n == 0 else u[n - 1] % m
        ok = (
            mat.u_prev == want_prev
            and mat.u_cur == u[n] % m
            and mat.u_next == u[n + 1] % m
        )
        entries.check(ok, f"n={n} m={m}")

    for _ in range(400):
        n = rng.randrange(0, 4 * max_value)
        m = rng.choice(_MODULUS_POOL)
        mat = matrix_pow_mod(n, m)
        pair = fib_pair_mod(n, m)
        doubling_route.check((mat.u_cur, mat.u_next) == pair, f"n={n} m={m}")

    for _ in range(400):
        n = rng.randrange(0, 10_000)
        m = rng.choice(_MODULUS_POOL)
        mat = matrix_pow_mod(n, m)
        cassini.check(mat.recurrence_ok() and mat.determinant_ok(), f"n={n} m={m}")

    for _ in range(400):
        n = rng.randrange(1, max_value + 1)
        m = rng.choice(_MODULUS_POOL)
        doubling.check(doubling_rhs(n, m) == u[2 * n] % m, f"n={n} m={m}")

    for _ in range(400):
        n = rng.randrange(0, max_value + 1)
        k = rng.randrange(0, n + 1)
        m = rng.choice(_MODULUS_POOL)
        subtraction.check(
            subtraction_rhs(n, k, m) == u[n - k] % m, f"m_idx={n} n_idx={k} mod={m}"
        )

    for _ in range(400):
        k = rng.randrange(1, 61)
        n = rng.randrange(1, 13)
        m = rng.choice(_MODULUS_POOL)
        want = fib_exact(k * n) % m
        binomial.check(binomial_expansion_rhs(k, n, m) == want, f"k={k} n={n} mod={m}")

    return [prop.result() for prop in props]


def _checked(moduli, scans, checks, profiled: bool = True) -> list[PropertyResult]:
    """The results of checks, each (props, at, then), from one pass over moduli.

    Each m of moduli, ascending, is factored once and given its fast period
    and, where profiled, its fast profile: one record, which every
    at(m, factors, gamma, prof, direct) reads, direct being m's direct
    profile where scans, a stream of (m, direct) over some of moduli in
    their order, holds it, else None.  Then each then() runs.
    """
    ats = [at for _, at, _ in checks]
    scanned = next(scans, None)
    for m in moduli:
        factors = factorize(m)
        gamma = pisano._period_from_factors(factors)
        prof = pisano._profile_with_period(m, gamma) if profiled else None
        direct = None
        if scanned is not None and scanned[0] == m:
            direct = scanned[1]
            scanned = next(scans, None)
        for at in ats:
            at(m, factors, gamma, prof, direct)
    for _, _, then in checks:
        then()
    return [prop.result() for props, _, _ in checks for prop in props]


def suite_pisano(max_value: int = 10_000) -> list[PropertyResult]:
    """Period/rank/zero-count structure over [2, max_value], against one direct scan."""
    moduli = range(2, max_value + 1)
    with _direct_scans(moduli) as scans:
        return _checked(moduli, scans, [_pisano_checks(max_value)])


def _pisano_checks(max_value: int):
    """suite_pisano's checks that need no pass, run now; returns its
    properties, the checks of one m's record against its direct scan, which
    at a prime p also read p's period, rank and zero count, and no check to
    run after the pass."""
    props = [_Property(name) for name in (
        "fast-period-equals-direct",
        "period-is-zerocount-times-rank",
        "odd-prime-power-zero-count-stable",
        "two-power-zero-counts",
        "odd-prime-period-even",
        "rank-neighbors-nonzero",
    )]
    routes, structure, stable, two_powers, even_period, neighbors = props

    two_powers.check(pisano.zero_count(2) == 1, "m=2")
    two_powers.check(pisano.zero_count(4) == 1, "m=4")
    for e in range(3, 13):
        two_powers.check(pisano.zero_count(2**e) == 2, f"m=2^{e}")

    primes = set(sieve_upto(max_value))

    def at(m, factors, gamma, prof, direct) -> None:
        routes.check(prof.gamma == direct.gamma, f"m={m} fast={prof.gamma} direct={direct.gamma}")
        ok = (
            prof.gamma == prof.upsilon * prof.alpha and prof.upsilon in (1, 2, 4)
            and (prof.alpha, prof.upsilon) == (direct.alpha, direct.upsilon)
        )
        # two dataclass reprs cost ~4 us: formatted only for a failure
        structure.check(ok, "" if ok else f"m={m} profile={prof} direct={direct}")
        if m not in primes:
            return
        if m != 2:
            even_period.check(gamma % 2 == 0, f"p={m}")
        if 2 < m <= 499:
            for e in (2, 3):
                if m**e > 1_000_000:
                    break
                stable.check(pisano.zero_count(m**e) == prof.upsilon, f"p={m} e={e}")
        rank = prof.alpha
        before = fib_pair_mod(rank - 1, m)[0]
        after = fib_pair_mod(rank + 1, m)[0]
        neighbors.check(before != 0 and after != 0, f"p={m} rank={rank}")

    return props, at, lambda: None


def suite_classify(max_value: int = 10_000) -> list[PropertyResult]:
    """Goodness criteria, zero-count patterns, and divisor classes.

    The pass runs over the odd moduli, and the odd-composite zero-count
    formula is checked against a direct scan of the odd composites alone.
    """
    primes = set(sieve_upto(max_value))
    composites = [m for m in range(3, max_value + 1, 2) if m not in primes]
    with _direct_scans(composites) as scans:
        return _checked(range(3, max_value + 1, 2), scans, [_classify_checks(max_value)])


def _classify_checks(max_value: int):
    """suite_classify's checks that need no pass, run now; returns its
    properties, the checks of one odd m's record, the zero-count formula
    against m's direct scan among them, and the checks over the primes that
    read the pass's verdicts on their powers, run after it."""
    props = [_Property(name) for name in (
        "fast-goodness-equals-direct",
        "even-never-good",
        "prime-power-goodness-follows-prime",
        "zero-count-pins-period-two-part",
        "good-number-zero-count-structure",
        "all-zero-count-4-factors-force-good",
        "odd-zero-count-formula-matches-scan",
        "period-divisor-class-covers",
    )]
    routes, even, powers, pattern, structure, force, formula, covers = props

    for m in range(2, min(2000, max_value) + 1, 2):
        even.check(not classify.is_good_direct(m), f"m={m}")

    primes = sieve_upto(max_value)
    prime_set = set(primes)
    # of the odd prime powers alone: each p^e exactly dividing m is at most
    # m, so passed before it
    ranks = {}  # the rank of each, for the lattice formula
    good_powers = set()  # those the direct route calls good

    def at(m, factors, gamma, prof, direct) -> None:
        if m % 2 == 0:
            return  # goodness and the formula are for odd m
        report = classify._report(factors, prof, "fast")
        good = classify._half_period_is_negative_identity(m, gamma)
        routes.check(report.is_good == good, f"m={m} fast={report.is_good} direct={good}")
        entries = report.prime_entries
        if report.is_good:
            counts = {entry.upsilon_p for entry in entries}
            structure.check(
                len(counts) == 1 and report.upsilon_m == entries[0].upsilon_p,
                f"m={m} counts={sorted(counts)} upsilon_m={report.upsilon_m}",
            )
        if all(entry.upsilon_p == 4 for entry in entries):
            force.check(good, f"m={m}")
        if len(factors) == 1:
            ranks[m] = prof.alpha
            if good:
                good_powers.add(m)
        if m in prime_set:
            return  # the formula is trivial at primes
        try:
            value = classify._zero_count_odd(m, factors, gamma, [ranks[p**e] for p, e in factors])
        except AnomalyError as exc:
            formula.check(False, str(exc))
        else:
            formula.check(value == direct.upsilon, f"m={m} value={value}")

    def then() -> None:
        for p in primes:
            if p != 5:
                cls = classify.period_divisor_class(p)
                covers.check(cls != "neither", f"p={p} class={cls}")
            if p == 2:
                continue
            e = 1
            while p**e <= max_value:
                powers.check((p**e in good_powers) == classify.is_good_prime(p), f"p={p} e={e}")
                e += 1
            try:
                classify.zero_count_period_pattern(p)
                pattern.check(True, "")
            except AnomalyError as exc:
                pattern.check(False, str(exc))

    return props, at, then


def suite_wss(max_value: int = 10_000) -> list[PropertyResult]:
    """Wall-Sun-Sun criteria, self-square enumeration, cofactor structure.

    Its pass over [2, max_value] takes each m's factors and period, which the
    self-square test reads, and no profile.
    """
    return _checked(range(2, max_value + 1), iter(()), [_wss_checks(max_value)], profiled=False)


def _wss_checks(max_value: int):
    """suite_wss's checks that need no pass, run now; returns its properties,
    the self-square test of one m's record, and the check of the set that
    test found, run after the pass."""
    props = [_Property(name) for name in (
        "no-wss-primes-and-criteria-agree",
        "self-square-set-is-6-12",
        "two-power-valuation-is-k-plus-1",
        "cofactor-times-u-g-gives-u-ag",
        "cofactor-divisibility-forces-multiplier",
        "odd-moduli-never-self-square",
    )]
    criteria, self_square, two_power, cofactor, multiplier, odd_moduli = props

    for p in sieve_upto(max_value):
        record = wss.wss_check(p)
        criteria.check(
            not record.is_wss and record.criteria_agree,
            f"p={p} is_wss={record.is_wss} agree={record.criteria_agree}",
        )

    for k in range(1, 31):
        valuation, ok = wss.two_power_valuation_check(k)
        want = 1 if k == 1 else k + 1
        two_power.check(valuation == want and ok, f"k={k} valuation={valuation} ok={ok}")

    for n in (2, 3, 5, 6, 7):
        for k in (1, 2):
            g = pisano.pisano_fast(n**k)
            for a in range(1, 40):
                # not n^k, where u_g == u_ag == 0 at g = period(n^k) whatever the cofactor
                for modulus in (n ** (2 * k), n ** (3 * k), 997):
                    lhs = wss.cofactor_mod(a, g, modulus) * fib_pair_mod(g, modulus)[0]
                    rhs = fib_pair_mod(a * g, modulus)[0]
                    cofactor.check(lhs % modulus == rhs, f"n={n} k={k} a={a} mod={modulus}")

    for n in range(2, 8):
        for k in (1, 2):
            g = pisano.pisano_fast(n**k)
            for l in range(1, k + 1):
                n_l = n**l
                for a in range(1, 201):
                    if wss.cofactor_mod(a, g, n_l) % n_l == 0:
                        multiplier.check(a % n_l == 0, f"n={n} k={k} l={l} a={a}")
                    else:
                        multiplier.check(True, "")

    found = set()  # the m passed so far with m^2 | u_{period(m)}
    odd_top = min(2000, max_value)

    def at(m, factors, gamma, prof, direct) -> None:
        if wss._self_square_test(m, gamma).divisible:
            found.add(m)
        # every p^e exactly dividing m is at most m, so found already holds
        # the test of m and of each of its prime powers
        if m % 2 and m <= odd_top:
            odd_moduli.check(
                m not in found and not any(p**e in found for p, e in factors), f"m={m}"
            )

    def then() -> None:
        expected = {m for m in (6, 12) if m <= max_value}
        self_square.check(found == expected, f"found={sorted(found)}")

    return props, at, then


def run_suites(suite: str, max_value: int, seed: int = 0) -> list[PropertyResult]:
    """Run one named suite (or all of them) and return the results."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if max_value < 2:
        raise ValueError(f"max must be >= 2, got {max_value}")
    if suite == "identities":
        return suite_identities(min(max_value, 3000), seed=seed)
    if suite == "pisano":
        return suite_pisano(max_value)
    if suite == "classify":
        return suite_classify(max_value)
    if suite == "wss":
        return suite_wss(max_value)
    # one pool scans each m once while every check that needs no pass runs
    # here; then the pass hands each m's one record to every suite's checks
    moduli = range(2, max_value + 1)
    with _direct_scans(moduli) as scans:
        identities = suite_identities(min(max_value, 3000), seed=seed)
        checks = [_pisano_checks(max_value), _classify_checks(max_value), _wss_checks(max_value)]
        return identities + _checked(moduli, scans, checks)

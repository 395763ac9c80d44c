"""Property suites: machine-checkable audits of the library's invariants.

Each suite runs a family of checks over bounded ranges and reports one
PropertyResult per property, carrying counterexamples when a check fails.
The CLI exposes them via `fibmod verify`; they are the same statements the
test suite pins down, packaged for ad-hoc, larger-range runs.

The brute-force direct scans, nearly all of a run's time, run on forked
worker processes, one per CPU this process may use and no more than there
are chunks of moduli to scan; the fast routes they audit run here, in the
calling process, and share no cache with them.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

from . import classify, pisano, wss
from .arith import sieve_upto
from .errors import AnomalyError
from .fib import (
    binomial_expansion_rhs,
    doubling_rhs,
    fib_exact,
    fib_pair_mod,
    matrix_pow_mod,
    subtraction_rhs,
)
from .pool import in_order, worker_pool

SUITE_NAMES = ("identities", "pisano", "classify", "wss", "all")

_MODULUS_POOL = (2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 25, 36, 97, 144, 1000, 999983, 10**9 + 7)
_DIRECT_CHUNK = 64  # moduli per worker call of the direct scans


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


def _profile_chunk(moduli) -> list[pisano.PisanoProfile]:
    return [pisano.profile_direct(m) for m in moduli]


@contextmanager
def _direct_profiles(moduli):
    """Each of moduli with its direct profile, in their order, scanned on
    worker processes in contiguous chunks of _DIRECT_CHUNK moduli."""
    starts = range(0, len(moduli), _DIRECT_CHUNK)
    chunks = (moduli[i : i + _DIRECT_CHUNK] for i in starts)
    # a forked pool starts all its workers at once: no more than there are chunks
    workers = max(1, min(len(os.sched_getaffinity(0)), len(starts)))
    with worker_pool(workers) as pool:
        scans = chain.from_iterable(in_order(pool, _profile_chunk, chunks, 2 * workers))
        yield zip(moduli, scans, strict=True)


def suite_identities(max_value: int = 3000, seed: int = 0) -> list[PropertyResult]:
    """Fibonacci identity and matrix-route audits against the exact values."""
    rng = random.Random(seed)
    exact = [0, 1]
    while len(exact) <= 2 * max_value + 2:
        exact.append(exact[-1] + exact[-2])
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
        want_prev = 1 % m if n == 0 else exact[n - 1] % m
        ok = (
            mat.u_prev == want_prev
            and mat.u_cur == exact[n] % m
            and mat.u_next == exact[n + 1] % m
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
        doubling.check(doubling_rhs(n, m) == exact[2 * n] % m, f"n={n} m={m}")

    for _ in range(400):
        n = rng.randrange(0, max_value + 1)
        k = rng.randrange(0, n + 1)
        m = rng.choice(_MODULUS_POOL)
        subtraction.check(
            subtraction_rhs(n, k, m) == exact[n - k] % m, f"m_idx={n} n_idx={k} mod={m}"
        )

    for _ in range(400):
        k = rng.randrange(1, 61)
        n = rng.randrange(1, 13)
        m = rng.choice(_MODULUS_POOL)
        want = fib_exact(k * n) % m
        binomial.check(binomial_expansion_rhs(k, n, m) == want, f"k={k} n={n} mod={m}")

    return [prop.result() for prop in props]


def suite_pisano(
    max_value: int = 10_000, *, zero_counts: bytearray | None = None
) -> list[PropertyResult]:
    """Period/rank/zero-count structure over [2, max_value], against one direct scan.

    zero_counts, of length max_value + 1, receives the zero count of every
    m that the direct scan finds, for suite_classify to reuse.
    """
    props = [_Property(name) for name in (
        "fast-period-equals-direct",
        "period-is-zerocount-times-rank",
        "odd-prime-power-zero-count-stable",
        "two-power-zero-counts",
        "odd-prime-period-even",
        "rank-neighbors-nonzero",
    )]
    routes, structure, stable, two_powers, even_period, neighbors = props

    moduli = range(2, max_value + 1)
    with _direct_profiles(moduli) as scans:
        for m, direct in scans:
            prof = pisano.profile(m)
            if zero_counts is not None:
                zero_counts[m] = direct.upsilon
            routes.check(prof.gamma == direct.gamma, f"m={m} fast={prof.gamma} direct={direct.gamma}")
            structure.check(
                prof.gamma == prof.upsilon * prof.alpha and prof.upsilon in (1, 2, 4)
                and (prof.alpha, prof.upsilon) == (direct.alpha, direct.upsilon),
                f"m={m} profile={prof} direct={direct}",
            )

    for p in sieve_upto(min(499, max_value)):
        if p == 2:
            continue
        base = pisano.zero_count(p)
        for e in (2, 3):
            if p**e > 1_000_000:
                break
            stable.check(pisano.zero_count(p**e) == base, f"p={p} e={e}")

    two_powers.check(pisano.zero_count(2) == 1, "m=2")
    two_powers.check(pisano.zero_count(4) == 1, "m=4")
    for e in range(3, 13):
        two_powers.check(pisano.zero_count(2**e) == 2, f"m=2^{e}")

    for p in sieve_upto(max_value):
        if p != 2:
            even_period.check(pisano.prime_period(p) % 2 == 0, f"p={p}")
        rank = pisano.rank_of_apparition(p)
        before = fib_pair_mod(rank - 1, p)[0]
        after = fib_pair_mod(rank + 1, p)[0]
        neighbors.check(before != 0 and after != 0, f"p={p} rank={rank}")

    return [prop.result() for prop in props]


def suite_classify(
    max_value: int = 10_000, *, zero_counts: bytearray | None = None
) -> list[PropertyResult]:
    """Goodness criteria, zero-count patterns, and divisor classes.

    The odd-composite zero-count formula is checked against a direct scan:
    the one suite_pisano filled zero_counts from, or else its own, of the
    odd composites alone.
    """
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

    if zero_counts is None:
        primes = set(sieve_upto(max_value))
        composites = [m for m in range(3, max_value + 1, 2) if m not in primes]
        zero_counts = bytearray(max_value + 1)
        with _direct_profiles(composites) as scans:
            for m, direct in scans:
                zero_counts[m] = direct.upsilon
    good_odd = set()  # odd m the direct route calls good, reused for prime powers
    for m in range(3, max_value + 1, 2):
        report = classify.is_good_fast(m)
        direct = classify.is_good_direct(m)
        if direct:
            good_odd.add(m)
        routes.check(report.is_good == direct, f"m={m} fast={report.is_good} direct={direct}")
        entries = report.prime_entries
        if report.is_good:
            counts = {entry.upsilon_p for entry in entries}
            structure.check(
                len(counts) == 1 and report.upsilon_m == entries[0].upsilon_p,
                f"m={m} counts={sorted(counts)} upsilon_m={report.upsilon_m}",
            )
        if all(entry.upsilon_p == 4 for entry in entries):
            force.check(direct, f"m={m}")
        if len(entries) == 1 and entries[0].e == 1:
            continue  # formula is trivial at primes; scan the composites
        try:
            value = classify.zero_count_odd(m)
        except AnomalyError as exc:
            formula.check(False, str(exc))
            continue
        formula.check(value == zero_counts[m], f"m={m} value={value}")

    for m in range(2, min(2000, max_value) + 1, 2):
        even.check(not classify.is_good_direct(m), f"m={m}")

    for p in sieve_upto(max_value):
        if p != 5:
            cls = classify.period_divisor_class(p)
            covers.check(cls != "neither", f"p={p} class={cls}")
        if p == 2:
            continue
        e = 1
        while p**e <= max_value:
            powers.check((p**e in good_odd) == classify.is_good_prime(p), f"p={p} e={e}")
            e += 1
        try:
            classify.zero_count_period_pattern(p)
            pattern.check(True, "")
        except AnomalyError as exc:
            pattern.check(False, str(exc))

    return [prop.result() for prop in props]


def suite_wss(max_value: int = 10_000) -> list[PropertyResult]:
    """Wall-Sun-Sun criteria, self-square enumeration, cofactor structure."""
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

    found = {record.m for record in wss.enumerate_self_square(max_value)}
    expected = {6, 12} if max_value >= 12 else set()
    self_square.check(found == expected, f"found={sorted(found)}")

    for k in range(1, 31):
        valuation, ok = wss.two_power_valuation_check(k)
        want = 1 if k == 1 else k + 1
        two_power.check(valuation == want and ok, f"k={k} valuation={valuation} ok={ok}")

    for n in (2, 3, 5, 6, 7):
        for k in (1, 2):
            g = pisano.pisano_fast(n**k)
            for a in range(1, 40):
                for modulus in (n**k, n ** (2 * k), 997):
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

    for m in range(3, min(2000, max_value) + 1, 2):
        report = wss.odd_self_square_check(m)
        odd_moduli.check(
            report.ok and all(flag for _, _, flag in report.prime_power_ok),
            f"m={m}",
        )

    return [prop.result() for prop in props]


def run_suites(suite: str, max_value: int, seed: int = 0) -> list[PropertyResult]:
    """Run one named suite (or all of them) and return the results."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if max_value < 2:
        raise ValueError(f"max must be >= 2, got {max_value}")
    results = []
    # with both suites, each m is scanned directly once, by suite_pisano
    zero_counts = bytearray(max_value + 1) if suite == "all" else None
    if suite in ("identities", "all"):
        results.extend(suite_identities(min(max_value, 3000), seed=seed))
    if suite in ("pisano", "all"):
        results.extend(suite_pisano(max_value, zero_counts=zero_counts))
    if suite in ("classify", "all"):
        results.extend(suite_classify(max_value, zero_counts=zero_counts))
    if suite in ("wss", "all"):
        results.extend(suite_wss(max_value))
    return results

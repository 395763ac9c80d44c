"""Property suites: machine-checkable audits of the library's invariants.

Each suite runs a family of checks over bounded ranges and reports one
PropertyResult per property, carrying counterexamples when a check fails.
The CLI exposes them via `fibmod verify`; they are the same statements the
test suite pins down, packaged for ad-hoc, larger-range runs.

Each suite with a pass is one builder, which states its properties once
and returns them with the set its pass finds, its scan rule, which names
the moduli of a chunk whose direct scan its checks read, and three
checkers: here(), the checks that need no pass, at(), those of one
modulus's record, and then(), those after the pass.  Its checks of each
modulus m run in one pass over its moduli, m ascending, cut in chunks of
_DIRECT_CHUNK moduli, each one call of _pass_chunk, on forked worker
processes, one per CPU this process may use and no more than there are
chunks, or here, as they are read, where that is one.  A chunk builds
each suite, then runs the brute-force direct scans of the moduli their
scan rules name, one call of pisano.profiles_direct, which scans up to
192 of them at once as the lanes of Python ints.  Then it factors each m
once, takes its fast period and profile once, and hands that record to
each suite's at(): the checks of m, against m's scan among them, at a
prime power p^e the goodness of p^e against p's, and, at a prime p, the
checks of p's period and rank, and p's Wall-Sun-Sun criteria from the
scan's own kernel on a one-prime block.  Suites share each modulus's one
fast record, never each other's verdicts, and the fast routes share no
cache with the direct scans, which hold none.  Of a smaller modulus, a
chunk takes only the rank of a prime power below it again, by the same
fast route; the odd moduli's self-square check reads the set found, once
the pass is done.  A chunk
comes back as each property's count of checks and first three failures,
with the self-square moduli it found: about 1.1 KB a chunk, where it was
32 B per modulus.  A run opens at most one pool, which keeps two chunks
per worker in flight (pool.ordered_map), the first of them queued at the
start; meanwhile the calling process builds each suite and runs its
here().  Then it folds the chunks in order, counts adding and failures
cut at three, which gives the results of one pass check for check, and
runs each then().  At --max 10000 on 2 CPUs the calling process takes
about 0.06-0.12 s of CPU and the workers about 0.6-1.1 s, for about
0.4-0.7 s of wall (tools/verify_split.py).  An early exit cancels the
queued chunks.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from . import classify, pisano, wss
from .arith import factorize, primes_in_range
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
# moduli per chunk of the pass: enough that the lanes of profiles_direct
# stay full (over [2, 1e4] they took 0.22 s in chunks of 2048, 0.26 s in
# chunks of 1024), beside which the pass costs about 30 us a modulus; at
# --max 1e4 five chunks for two workers, of 0.1-0.15 s of CPU each
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

    def fold(self, later: _Property) -> None:
        """Take in later's tally, of checks made after every check here."""
        self.checked += later.checked
        self.failures += later.failures[: 3 - len(self.failures)]

    def result(self) -> PropertyResult:
        return PropertyResult(
            name=self.name,
            passed=not self.failures,
            checked=self.checked,
            failures=tuple(self.failures),
        )


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


def _checked(suites, moduli, max_value: int, profiled: bool = True, before=list) -> list[PropertyResult]:
    """before()'s results, then those of each of suites, one pass over moduli.

    The pass runs chunk by chunk, each chunk of _DIRECT_CHUNK moduli one
    call of _pass_chunk, which scans directly the moduli of the chunk that
    some suite's scan rule names and, where profiled, hands each m its fast
    profile.  Where two can run, the chunks go to a pool of worker
    processes, its first two per worker queued on entry, so the workers
    take the pass while the caller builds each suite and runs before() and
    each suite's here().  Each chunk's tallies are then folded in chunk
    order, after the checks made here, and each suite's then() runs.
    """
    starts = range(0, len(moduli), _DIRECT_CHUNK)
    chunks = (moduli[i : i + _DIRECT_CHUNK] for i in starts)
    tasks = ((suites, chunk, max_value, profiled) for chunk in chunks)
    with ordered_map(_pass_chunk, tasks, len(starts)) as tallies:
        results = before()
        built = [_SUITES[suite](max_value) for suite in suites]
        for _, _, _, here, _, _ in built:
            here()
        for tally in tallies:
            for (props, found, *_), (theirs, their_found) in zip(built, tally, strict=True):
                for prop, their in zip(props, theirs, strict=True):
                    prop.fold(their)
                found |= their_found
    for *_, then in built:
        then()
    return results + [prop.result() for props, *_ in built for prop in props]


def _pass_chunk(task):
    """One chunk's share of the pass, in a pool worker or, with one worker,
    in the caller: it builds each suite, then scans directly, in one call,
    the moduli that any suite's scan rule names of the chunk, then gives
    each m of the chunk, ascending, its factors, taken once, its fast
    period and, where profiled, its fast profile: one record, which each
    suite's at(m, factors, gamma, prof, direct) reads, direct being m's
    direct profile where the chunk scanned m, else None.  Returns, for each
    suite, its properties as the chunk checked them and the set its pass
    found.
    """
    suites, moduli, max_value, profiled = task
    built = [_SUITES[suite](max_value) for suite in suites]
    scanned = sorted(set().union(*(scans(moduli) for _, _, scans, *_ in built)))
    direct = dict(zip(scanned, pisano.profiles_direct(scanned), strict=True))
    for m in moduli:
        factors = factorize(m)
        gamma = pisano._period_from_factors(factors)
        prof = pisano._profile_with_period(m, gamma) if profiled else None
        for *_, at, _ in built:
            at(m, factors, gamma, prof, direct.get(m))
    return [(props, found) for props, found, *_ in built]


def _properties(names) -> list[_Property]:
    return [_Property(name) for name in names]


def suite_pisano(max_value: int = 10_000) -> list[PropertyResult]:
    """Period/rank/zero-count structure over [2, max_value], against one direct scan."""
    return _checked(("pisano",), range(2, max_value + 1), max_value)


_PISANO = (
    "fast-period-equals-direct",
    "period-is-zerocount-times-rank",
    "odd-prime-power-zero-count-stable",
    "two-power-zero-counts",
    "odd-prime-period-even",
    "rank-neighbors-nonzero",
)


def _pisano(max_value: int):
    """suite_pisano's properties, the set its pass finds (none), its scan
    rule, which names every modulus of a chunk, here(), the checks that
    need no pass, at(), the checks of one m's record against its direct
    scan, which at a prime p also read p's period, rank and zero count, and
    then(), which has none to make."""
    props = _properties(_PISANO)
    routes, structure, stable, two_powers, even_period, neighbors = props

    def here() -> None:
        two_powers.check(pisano.zero_count(2) == 1, "m=2")
        two_powers.check(pisano.zero_count(4) == 1, "m=4")
        for e in range(3, 13):
            two_powers.check(pisano.zero_count(2**e) == 2, f"m=2^{e}")

    def at(m, factors, gamma, prof, direct) -> None:
        routes.check(prof.gamma == direct.gamma, f"m={m} fast={prof.gamma} direct={direct.gamma}")
        ok = (
            prof.gamma == prof.upsilon * prof.alpha and prof.upsilon in (1, 2, 4)
            and (prof.alpha, prof.upsilon) == (direct.alpha, direct.upsilon)
        )
        # two dataclass reprs cost ~4 us: formatted only for a failure
        structure.check(ok, "" if ok else f"m={m} profile={prof} direct={direct}")
        if factors != ((m, 1),):
            return  # the rest reads primes alone
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

    return props, set(), lambda chunk: chunk, here, at, lambda: None


def suite_classify(max_value: int = 10_000) -> list[PropertyResult]:
    """Goodness criteria, zero-count patterns, and divisor classes.

    The pass runs over the odd moduli, and the odd-composite zero-count
    formula is checked against a direct scan of the odd composites alone.
    """
    return _checked(("classify",), range(3, max_value + 1, 2), max_value)


_CLASSIFY = (
    "fast-goodness-equals-direct",
    "even-never-good",
    "prime-power-goodness-follows-prime",
    "zero-count-pins-period-two-part",
    "good-number-zero-count-structure",
    "all-zero-count-4-factors-force-good",
    "odd-zero-count-formula-matches-scan",
    "period-divisor-class-covers",
)


def _classify(max_value: int):
    """suite_classify's properties, the set its pass finds (none), its scan
    rule, which names the odd composites of a chunk, the moduli whose
    direct scan the formula reads, from the chunk's own primes, here(), the
    checks that need no pass, at(), the checks of one odd m's record,
    the zero-count formula against m's direct scan among them, at an odd
    prime power p^e the goodness of p^e against p's and, at a prime p, the
    checks of p's period, and then(), which has none to make."""
    props = _properties(_CLASSIFY)
    routes, even, prime_powers, pattern, structure, force, formula, covers = props
    # the rank of each odd prime power, for the lattice formula: from its
    # own record where the chunk passed it, which it did before any m that
    # it divides, else, below the chunk, from its lifted period
    ranks = {}

    def rank(p: int, e: int) -> int:
        if p**e not in ranks:
            ranks[p**e] = pisano._profile_with_period(p**e, pisano.prime_power_period(p, e)).alpha
        return ranks[p**e]

    def scans(chunk):
        primes = set(primes_in_range(chunk[0], chunk[-1]))
        return [m for m in chunk if m % 2 and m not in primes]

    def here() -> None:
        for m in range(2, min(2000, max_value) + 1, 2):
            even.check(not classify.is_good_direct(m), f"m={m}")
        # the pass checks the odd primes, and may pass over the odd moduli alone
        cls = classify.period_divisor_class(2)
        covers.check(cls != "neither", f"p=2 class={cls}")

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
            [(p, e)] = factors
            prime_powers.check(good == classify.is_good_prime(p), f"p={p} e={e}")
        if factors != ((m, 1),):
            try:
                value = classify._zero_count_odd(m, factors, gamma, [rank(p, e) for p, e in factors])
            except AnomalyError as exc:
                formula.check(False, str(exc))
            else:
                formula.check(value == direct.upsilon, f"m={m} value={value}")
            return
        # the formula is trivial at primes
        if m != 5:
            cls = classify.period_divisor_class(m)
            covers.check(cls != "neither", f"p={m} class={cls}")
        try:
            classify.zero_count_period_pattern(m)
            pattern.check(True, "")
        except AnomalyError as exc:
            pattern.check(False, str(exc))

    return props, set(), scans, here, at, lambda: None


def suite_wss(max_value: int = 10_000) -> list[PropertyResult]:
    """Wall-Sun-Sun criteria, self-square enumeration, cofactor structure.

    Its pass over [2, max_value] takes each m's factors and period, which the
    self-square test reads, and no profile; its scan rule names no modulus.
    """
    return _checked(("wss",), range(2, max_value + 1), max_value, profiled=False)


_WSS = (
    "no-wss-primes-and-criteria-agree",
    "self-square-set-is-6-12",
    "two-power-valuation-is-k-plus-1",
    "cofactor-times-u-g-gives-u-ag",
    "cofactor-divisibility-forces-multiplier",
    "odd-moduli-never-self-square",
)


def _wss(max_value: int):
    """suite_wss's properties, the set of self-square m its pass finds, its
    scan rule, which names no modulus, here(), the checks that need no pass,
    at(), the self-square test of one m's record and, at a prime p, p's two
    Wall-Sun-Sun criteria, and then(), the checks of the set found."""
    props = _properties(_WSS)
    criteria, self_square, two_power, cofactor, multiplier, odd_moduli = props
    found = set()  # the m passed so far with m^2 | u_{period(m)}

    def here() -> None:
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

    def at(m, factors, gamma, prof, direct) -> None:
        test = wss._self_square_test(m, gamma)
        if test.divisible:
            found.add(m)
        if factors == ((m, 1),):
            # the scan's own kernel on a one-prime block: its u_gamma mod p^2,
            # of the period from the block's facts, must be the test's
            _, [record] = wss._scan_block((m, m, [m]))
            residue = record.residue_fib_gamma_mod_p2
            criteria.check(
                not record.is_wss and record.criteria_agree and residue == test.residue_mod_m2,
                f"p={m} is_wss={record.is_wss} agree={record.criteria_agree} "
                f"u_gamma={residue} test={test.residue_mod_m2}",
            )

    def then() -> None:
        expected = {m for m in (6, 12) if m <= max_value}
        self_square.check(found == expected, f"found={sorted(found)}")
        # an odd m fails where it was found, or an odd prime power q that
        # exactly divides it was: q | m, and q is prime to m / q
        odd_powers = [q for q in found if q % 2 and len(factorize(q)) == 1]
        for m in range(3, min(2000, max_value) + 1, 2):
            hit = m in found or any(m % q == 0 and math.gcd(q, m // q) == 1 for q in odd_powers)
            odd_moduli.check(not hit, f"m={m}")

    return props, found, lambda chunk: (), here, at, then


# each suite that the pass serves, by the builder of its checks
_SUITES = {"pisano": _pisano, "classify": _classify, "wss": _wss}


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
    # one pass over [2, max] serves every suite, in the pool's workers,
    # while the identities and every check that needs no pass run here
    identities = functools.partial(suite_identities, min(max_value, 3000), seed=seed)
    return _checked(("pisano", "classify", "wss"), range(2, max_value + 1), max_value, before=identities)

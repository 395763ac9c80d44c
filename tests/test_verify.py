import concurrent.futures
import dataclasses
import functools
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from unittest import mock

import pytest

import fibmod.classify as classify_module
import fibmod.pisano as pisano_module
import fibmod.pool as pool_module
import fibmod.verify as verify_module
import fibmod.wss as wss_module
from fibmod.arith import factorize, primes_in_range, two_adic_split
from fibmod.errors import AnomalyError
from fibmod.fib import fib_pair_mod
from fibmod.pisano import PisanoProfile
from fibmod.verify import run_suites, suite_classify, suite_identities, suite_pisano, suite_wss

from helpers import CountingExecutor, binding_calls, factorize_calls, is_prime_trial, two_cpus

_real_profiles_direct = pisano_module.profiles_direct
_real_zero_count_odd = classify_module._zero_count_odd
_real_self_square_test = wss_module._self_square_test
_real_init_worker = pool_module._init_worker


@pytest.mark.parametrize(
    "suite,runner",
    [
        ("identities", suite_identities),
        ("pisano", suite_pisano),
        ("classify", suite_classify),
        ("wss", suite_wss),
    ],
)
def test_suites_pass_at_small_scale(suite, runner):
    results = runner(500)
    assert results
    for r in results:
        assert r.passed, f"{suite}/{r.name}: {r.failures}"
        assert r.checked > 0


def test_run_all():
    results = run_suites("all", 200)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert all(r.passed for r in results)


@pytest.mark.parametrize("max_value", range(2, 14))
def test_run_all_passes_below_and_across_the_self_square_moduli(max_value):
    # the expected self-square set is {6, 12} cut at max_value: {6} for 6..11
    for r in run_suites("all", max_value):
        assert r.passed, f"max={max_value} {r.name}: {r.failures}"


def _twenty_five_divisible(m, gamma):
    record = _real_self_square_test(m, gamma)
    return dataclasses.replace(record, divisible=True) if m == 25 else record


def test_odd_moduli_read_the_self_square_test(monkeypatch):
    # the pass's self-square test, which verify reads in place of
    # self_square_test, taken once per modulus at its own record: the check
    # after the pass reads the set found, so in chunks of 8 moduli, where 75
    # and 175 lie in later chunks than 25, none of them tests 25 again
    tested = []

    def logged(m, gamma):
        tested.append(m)
        return _twenty_five_divisible(m, gamma)

    monkeypatch.setattr(wss_module, "_self_square_test", logged)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(verify_module, "_DIRECT_CHUNK", 8)
    odd_moduli = {r.name: r for r in run_suites("wss", 300)}["odd-moduli-never-self-square"]
    assert tested == list(range(2, 301))
    assert not odd_moduli.passed
    assert odd_moduli.failures == ("m=25", "m=75", "m=175")


def test_odd_moduli_read_the_test_of_m_itself(monkeypatch):
    # 15 is no prime power, so only its own test can flag it
    def fifteen_divisible(m, gamma):
        record = _real_self_square_test(m, gamma)
        return dataclasses.replace(record, divisible=True) if m == 15 else record

    monkeypatch.setattr(wss_module, "_self_square_test", fifteen_divisible)
    odd_moduli = {r.name: r for r in suite_wss(300)}["odd-moduli-never-self-square"]
    assert odd_moduli.failures == ("m=15",)


def test_a_wrong_cofactor_fails_its_product_check(monkeypatch):
    real = wss_module.cofactor_mod
    monkeypatch.setattr(wss_module, "cofactor_mod", lambda a, g, n_l: (real(a, g, n_l) + 1) % n_l)
    results = {r.name: r for r in run_suites("wss", 1000)}
    cofactor = results["cofactor-times-u-g-gives-u-ag"]
    assert not cofactor.passed
    assert cofactor.failures == ("n=2 k=1 a=1 mod=4", "n=2 k=1 a=1 mod=8", "n=2 k=1 a=1 mod=997")


# the cofactor check's moduli for n in (2, 3, 5, 6, 7) and k in (1, 2); n^k
# is not one, as there u_g == u_ag == 0 for g = period(n^k) whatever the cofactor
_COFACTOR_MODULI = {
    "n^2k": {n ** (2 * k) for n in (2, 3, 5, 6, 7) for k in (1, 2)},
    "n^3k": {n ** (3 * k) for n in (2, 3, 5, 6, 7) for k in (1, 2)},
    "997": {997},
}


@pytest.mark.parametrize("slot", list(_COFACTOR_MODULI))
def test_each_cofactor_modulus_catches_a_wrong_cofactor(monkeypatch, slot):
    moduli = _COFACTOR_MODULI[slot]
    real = wss_module.cofactor_mod
    monkeypatch.setattr(wss_module, "cofactor_mod", lambda a, g, n_l: (real(a, g, n_l) + (n_l in moduli)) % n_l)
    cofactor = {r.name: r for r in suite_wss(100)}["cofactor-times-u-g-gives-u-ag"]
    assert not cofactor.passed
    assert {int(failure.split("mod=")[1]) for failure in cofactor.failures} <= moduli


def test_each_odd_modulus_residue_is_computed_once():
    with binding_calls(fib_pair_mod) as calls:
        results = suite_wss(2000)
    assert all(r.passed for r in results)
    by_modulus = Counter(modulus for _, modulus in calls)
    composite = [m for m in range(3, 2001, 2) if len(factorize(m)) > 1]
    assert len(composite) == 676
    assert {m: by_modulus[m * m] for m in composite} == {m: 1 for m in composite}


def test_identities_seeded_reproducible():
    assert suite_identities(300, seed=3) == suite_identities(300, seed=3)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites("nope", 100)


def test_rank_and_zero_count_audited_against_direct_scan():
    # a fast profile that is wrong at m = 5 yet keeps period = zero count * rank,
    # from the pass's profile, which verify reads in place of profile
    real_profile = pisano_module._profile_with_period

    def fake(m, gamma):
        return PisanoProfile(m=5, gamma=20, alpha=10, upsilon=2) if m == 5 else real_profile(m, gamma)

    with mock.patch.object(pisano_module, "_profile_with_period", fake):
        results = {r.name: r for r in suite_pisano(50)}
    assert results["fast-period-equals-direct"].passed
    structure = results["period-is-zerocount-times-rank"]
    assert not structure.passed
    assert structure.failures == (
        "m=5 profile=PisanoProfile(m=5, gamma=20, alpha=10, upsilon=2) "
        "direct=PisanoProfile(m=5, gamma=20, alpha=5, upsilon=4)",
    )


def test_passing_structure_checks_format_no_profile():
    # the failure detail, two dataclass reprs, is built only for a failure
    class Unprintable(PisanoProfile):
        def __repr__(self):
            raise AssertionError(f"formatted the profile of m={self.m}")

    real_profile = pisano_module._profile_with_period
    reached = set()

    def unprintable(m, gamma):
        reached.add(m)
        return Unprintable(*dataclasses.astuple(real_profile(m, gamma)))

    with mock.patch.object(pisano_module, "_profile_with_period", unprintable):
        results = {r.name: r for r in suite_pisano(300)}
    assert reached >= set(range(2, 301))  # the pass's profile of every m is the unprintable one
    assert results["period-is-zerocount-times-rank"] == verify_module.PropertyResult(
        "period-is-zerocount-times-rank", True, 299, ()
    )


def _formula_wrong_at_45_and_121_raising_at_91(m, factors, gamma, ranks):
    # stands in for the pass's formula, which verify reads in place of zero_count_odd
    if m == 91:
        raise AnomalyError("injected at m=91")
    return _real_zero_count_odd(m, factors, gamma, ranks) + (m in (45, 121))


@pytest.mark.parametrize("run", [
    lambda: run_suites("all", 300),
    lambda: run_suites("classify", 300),
    lambda: suite_classify(300),
], ids=["all", "classify", "suite_classify"])
def test_formula_checks_fail_in_modulus_order(run, monkeypatch):
    # each odd composite's formula value is compared with its scan as the
    # scan arrives, in m order, a value that raised kept as its message
    monkeypatch.setattr(classify_module, "_zero_count_odd", _formula_wrong_at_45_and_121_raising_at_91)
    results = {r.name: r for r in run()}
    formula = results.pop("odd-zero-count-formula-matches-scan")
    assert formula.checked == 88  # the odd composites in [3, 300]
    assert formula.failures == ("m=45 value=3", "injected at m=91", "m=121 value=2")
    assert all(r.passed for r in results.values())


def test_formula_reads_the_ranks_of_the_prime_powers(monkeypatch):
    # the pass hands each odd composite's formula the rank of each p^e
    # exactly dividing it, kept from p^e's own record, in the factors' order
    given = {}

    def spy(m, factors, gamma, ranks):
        given[m] = ranks
        return _real_zero_count_odd(m, factors, gamma, ranks)

    monkeypatch.setattr(classify_module, "_zero_count_odd", spy)
    assert all(r.passed for r in run_suites("all", 300))
    assert given == {
        m: [pisano_module.rank_of_apparition(p**e) for p, e in factorize(m)]
        for m in range(3, 301, 2) if not is_prime_trial(m)
    }


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("max_value", [2, 65, 66, 300])
def test_single_suites_equal_their_slice_of_all(max_value, faulted, monkeypatch):
    # suites share each modulus's one record, never each other's verdicts:
    # each alone gives what it gives in all
    if faulted:
        monkeypatch.setattr(classify_module, "_zero_count_odd", _formula_wrong_at_45_and_121_raising_at_91)
        monkeypatch.setattr(wss_module, "_self_square_test", _twenty_five_divisible)
    shared = run_suites("all", max_value)
    for alone in (
        suite_identities(max_value), suite_pisano(max_value), suite_classify(max_value), suite_wss(max_value)
    ):
        assert [r for r in shared if r.name in {a.name for a in alone}] == alone
    shared = {r.name: r for r in shared}
    assert shared["odd-zero-count-formula-matches-scan"].passed == (not faulted or max_value < 45)
    assert shared["odd-moduli-never-self-square"].passed == (not faulted or max_value < 25)


def test_all_factors_each_modulus_once(monkeypatch):
    # on one CPU every call runs here; with the period memos empty, the only
    # factorizations besides the pass's one of each m are the prime-period
    # layer's of the odd part of each prime's bound, once, through
    # prime_period's memo, where that part is not 1, and those of the moduli
    # the fixed-input checks build and hand to a public route.  The
    # criteria's one-prime scan block takes every prime's facts, 5's
    # included, from its strike pass
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for memo in (pisano_module.prime_period, pisano_module.lifting_exponent, pisano_module._prime_zero_count):
        memo.cache_clear()
    with factorize_calls() as calls, binding_calls(pisano_module._profile_with_period) as profiles:
        results = run_suites("all", 2000)
    assert all(r.passed for r in results)
    primes = [p for p in range(2, 2001) if is_prime_trial(p)]
    neighbours = [{1: p - 1, 2: p + 1, 3: p + 1, 4: p - 1, 0: 5}[p % 5] if p != 2 else 3 for p in primes]
    bounds = [odd for odd in (two_adic_split(n)[1] for n in neighbours) if odd > 1]
    built = [p**e for p in primes if 2 < p <= 499 for e in (2, 3) if p**e <= 10**6]  # zero-count stability
    built += [2**e for e in range(1, 13)]  # two-power zero counts
    built += [n**k for n in (2, 3, 5, 6, 7) for k in (1, 2)]  # cofactor products
    built += [n**k for n in range(2, 8) for k in (1, 2)]  # cofactor multipliers
    assert Counter(calls) == Counter(range(2, 2001)) + Counter(bounds) + Counter(built)
    assert (len(calls), len(profiles)) == (2451, 2431)


def test_all_at_10000_keeps_the_reference_check_counts():
    # the benchmark's verify-all holds each property's count of checks at
    # --max 10000, names and order included, to benchmarks/reference.json
    reference = json.loads((pathlib.Path(__file__).parents[1] / "benchmarks" / "reference.json").read_text())
    results = run_suites("all", 10000)
    assert all(r.passed for r in results)
    assert [(r.name, r.checked) for r in results] == list(reference["verify_checked"].items())


_real_bound_factor_sieve = pisano_module._bound_factor_sieve
_real_half_period_test = classify_module._half_period_is_negative_identity


def _bound_of_2969_two_part_only(primes):
    # stands in for the strike pass: 2969's bound 2968 = 2^3 * 7 * 53 read
    # with no odd prime, so that the period taken from those facts is 2968,
    # not 424
    facts = _real_bound_factor_sieve(primes)
    if 2969 in facts:
        assert facts[2969] == (7, 53)
        facts[2969] = ()
    return facts


def test_prime_criteria_read_the_scan_kernels_facts(monkeypatch):
    # each prime's criteria come from the scan's kernel on a one-prime block,
    # whose period reads the strike pass's factors of the bound: its u_gamma
    # mod p^2 must be the self-square test's, from the pass's own period
    monkeypatch.setattr(pisano_module, "_bound_factor_sieve", _bound_of_2969_two_part_only)
    results = {r.name: r for r in run_suites("all", 3000)}
    criteria = results.pop("no-wss-primes-and-criteria-agree")
    kernel, test = fib_pair_mod(2968, 2969**2)[0], fib_pair_mod(424, 2969**2)[0]
    assert criteria.checked == 430  # the primes up to 3000
    assert criteria.failures == (f"p=2969 is_wss=False agree=True u_gamma={kernel} test={test}",)
    assert all(r.passed for r in results.values())


def _flipped_at_7_9_and_25(m, gamma):
    # stands in for the direct goodness test: wrong at the prime 7 and at
    # the prime powers 9 and 25, whose primes it leaves alone
    return _real_half_period_test(m, gamma) != (m in (7, 9, 25))


@pytest.mark.parametrize("suite", ["classify", "all"])
@pytest.mark.parametrize("layout", ["pooled", "one-cpu", "one-chunk"])
def test_prime_power_goodness_fails_in_modulus_order(suite, layout, monkeypatch):
    # each odd prime power p^e is checked against p at p^e's own record in
    # the pass, so its failures come in m order, not p's; pooled in chunks
    # of 8 moduli, 25 falls in a later chunk than 7 and 9 do
    monkeypatch.setattr(classify_module, "_half_period_is_negative_identity", _flipped_at_7_9_and_25)
    if layout == "pooled":
        two_cpus(monkeypatch)
        monkeypatch.setattr(verify_module, "_DIRECT_CHUNK", 8)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    if layout == "one-chunk":
        monkeypatch.setattr(verify_module, "_DIRECT_CHUNK", 10**6)
    powers = {r.name: r for r in run_suites(suite, 3000)}["prime-power-goodness-follows-prime"]
    assert powers.checked == 455  # the odd prime powers up to 3000
    assert powers.failures == ("p=7 e=1", "p=3 e=2", "p=5 e=2")


def test_a_wrong_matrix_entry_at_the_top_of_the_table_fails(monkeypatch):
    # the table is carried mod the lcm of the pool up to u_6002: an entry wrong
    # only near its top, at n >= 2900, still disagrees with it
    real = verify_module.matrix_pow_mod

    def late_wrong(n, m):
        mat = real(n, m)
        return dataclasses.replace(mat, u_cur=(mat.u_cur + 1) % m) if n >= 2900 else mat

    monkeypatch.setattr(verify_module, "matrix_pow_mod", late_wrong)
    entries = {r.name: r for r in suite_identities(3000)}["matrix-entries-match-exact"]
    assert not entries.passed
    assert all(int(failure.split()[0][2:]) >= 2900 for failure in entries.failures)


def _log_scans(directory, moduli):
    # stands in for pisano.profiles_direct in the pool's workers: one file per process
    with open(os.path.join(directory, str(os.getpid())), "a", encoding="utf-8") as fh:
        fh.writelines(f"{m}\n" for m in moduli)
    return _real_profiles_direct(moduli)


def _scans(directory):
    """Each process that scanned, and the moduli it scanned."""
    return {int(name): [int(m) for m in (directory / name).read_text().split()]
            for name in os.listdir(directory)}


def test_classify_sieves_each_chunk_for_its_own_primes(monkeypatch):
    # the classify suite's scan rule takes the primes of a chunk's own span,
    # so no sieve spans [2, max]: on one CPU every call runs here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    moduli = range(3, 6001, 2)
    size = verify_module._DIRECT_CHUNK
    chunks = [moduli[i : i + size] for i in range(0, len(moduli), size)]
    with binding_calls(primes_in_range) as calls:
        assert all(r.passed for r in run_suites("classify", 6000))
    assert calls
    assert all(any(chunk[0] <= lo <= hi <= chunk[-1] for chunk in chunks) for lo, hi in calls)


def test_all_suites_scan_each_modulus_directly_once(tmp_path, monkeypatch):
    # at 6000 both scans take more than one chunk, so a pool: 2217 odd composites
    two_cpus(monkeypatch)
    shared_dir, alone_dir = tmp_path / "shared", tmp_path / "alone"
    shared_dir.mkdir()
    alone_dir.mkdir()
    monkeypatch.setattr(pisano_module, "profiles_direct", functools.partial(_log_scans, shared_dir))
    shared = run_suites("all", 6000)
    monkeypatch.setattr(pisano_module, "profiles_direct", functools.partial(_log_scans, alone_dir))
    # the classify suite on its own scans for itself, with the same outcome
    alone = suite_classify(6000)
    monkeypatch.undo()
    scans = _scans(shared_dir)
    assert os.getpid() not in scans  # every direct scan runs in a worker
    assert sorted(m for moduli in scans.values() for m in moduli) == list(range(2, 6001))
    scans = _scans(alone_dir)
    assert os.getpid() not in scans
    # of the odd moduli, only the composites: the formula is trivial at primes
    odd_composites = [m for m in range(3, 6001, 2) if not is_prime_trial(m)]
    assert sorted(m for moduli in scans.values() for m in moduli) == odd_composites
    assert [r for r in shared if r.name in {a.name for a in alone}] == alone


def test_direct_scans_merge_in_modulus_order(monkeypatch):
    # a direct route wrong at one m in the first chunk and one past it: the
    # merged stream must pair each scan with its m and no other modulus
    def wrong_at_1777_and_2777(moduli):
        return [dataclasses.replace(prof, gamma=prof.gamma + 1) if prof.m in (1777, 2777) else prof
                for prof in _real_profiles_direct(moduli)]

    monkeypatch.setattr(pisano_module, "profiles_direct", wrong_at_1777_and_2777)
    results = {r.name: r for r in suite_pisano(3000)}
    routes = results["fast-period-equals-direct"]
    assert not routes.passed
    assert len(routes.failures) == 2 and routes.failures[0].startswith("m=1777 ")
    assert routes.failures[1].startswith("m=2777 ")


def _note_worker(pids_dir, *init_args):
    # stands in for the pool's worker initializer: records each started worker
    open(os.path.join(pids_dir, str(os.getpid())), "w").close()
    _real_init_worker(*init_args)


def _counted(run, monkeypatch):
    """run's result, its process pools replaced by CountingExecutor, and
    the pools it opened, the workers asked for and the peak of futures."""
    counters = ("pools", "max_workers", "peak")
    with monkeypatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingExecutor)
        for counter in counters:
            patch.setattr(CountingExecutor, counter, 0)
        return run(), *(getattr(CountingExecutor, counter) for counter in counters)


_CHUNK = verify_module._DIRECT_CHUNK


@pytest.mark.parametrize("max_value", [2, 3, _CHUNK, _CHUNK + 1, _CHUNK + 2, 2 * _CHUNK + 2])
def test_pooled_run_equals_in_process_scans_at_edge_sizes(max_value, tmp_path, monkeypatch):
    # one chunk of moduli [2, max_value] up to max_value = _CHUNK + 1, two at
    # _CHUNK + 2, and three, the last of one modulus, at 2 * _CHUNK + 2
    chunks = -(-(max_value - 1) // verify_module._DIRECT_CHUNK)
    workers = min(len(os.sched_getaffinity(0)), chunks)
    reference, pools, max_workers, peak = _counted(lambda: run_suites("all", max_value), monkeypatch)
    if workers == 1:
        # one chunk, or one CPU: the scans run here, with no pool
        assert (pools, max_workers, peak) == (0, 0, 0)
    else:
        assert max_workers == workers
        # one pool, with two chunks per worker in flight: here every chunk
        assert pools == 1 and peak == min(chunks, 2 * workers) == chunks
    monkeypatch.setattr(pool_module, "_init_worker", functools.partial(_note_worker, str(tmp_path)))
    assert run_suites("all", max_value) == reference
    assert all(r.passed for r in reference)
    assert len(os.listdir(tmp_path)) == (0 if workers == 1 else workers)


def _formula_wrong_in_three_chunks(m, factors, gamma, ranks):
    # stands in for the pass's formula: wrong at odd composites in the first
    # and third chunks of [2, 6000], and raising in the second
    if m == 2051:
        raise AnomalyError("injected at m=2051")
    return _real_zero_count_odd(m, factors, gamma, ranks) + (m in (45, 4101, 4105))


def _three_hundred_seven_divisible(m, gamma):
    record = _real_self_square_test(m, gamma)
    return dataclasses.replace(record, divisible=True) if m == 307 else record


@pytest.mark.parametrize("chunk", [_CHUNK, 300])
def test_chunk_tallies_fold_to_the_one_pass(chunk, monkeypatch):
    # each chunk's failures come back in m order and are cut at 3 across the
    # chunks, and its counts add: pooled, on one CPU and in one chunk, the
    # run is the same.  In chunks of 300 a modulus reads the rank of a prime
    # power below its chunk, as 921 = 3 * 307 and 1535 = 5 * 307 read that of
    # 307, and the odd-moduli check reads 307 among the moduli found
    monkeypatch.setattr(classify_module, "_zero_count_odd", _formula_wrong_in_three_chunks)
    monkeypatch.setattr(wss_module, "_self_square_test", _three_hundred_seven_divisible)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(verify_module, "_DIRECT_CHUNK", 10**6)
    one_pass = run_suites("all", 6000)
    monkeypatch.setattr(verify_module, "_DIRECT_CHUNK", chunk)
    one_cpu = run_suites("all", 6000)
    two_cpus(monkeypatch)
    pooled, pools, _, _ = _counted(lambda: run_suites("all", 6000), monkeypatch)
    assert pools == 1
    assert run_suites("all", 6000) == pooled == one_cpu == one_pass
    results = {r.name: r for r in pooled}
    formula = results.pop("odd-zero-count-formula-matches-scan")
    assert formula.checked == 2217  # the odd composites in [3, 6000]
    value = pisano_module.zero_count_direct(4101) + 1
    assert formula.failures == ("m=45 value=3", "injected at m=2051", f"m=4101 value={value}")
    assert results.pop("odd-moduli-never-self-square").failures == ("m=307", "m=921", "m=1535")
    assert results.pop("self-square-set-is-6-12").failures == ("found=[6, 12, 307]",)
    assert all(r.passed for r in results.values())


@pytest.mark.parametrize("suite", ["pisano", "classify", "wss"])
def test_single_suites_pooled_equal_one_cpu(suite, monkeypatch):
    # 4100 takes three chunks of [2, 4100] and two of its odd moduli
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_cpu = run_suites(suite, 4100)
    two_cpus(monkeypatch)
    assert run_suites(suite, 4100) == one_cpu
    assert all(r.passed for r in one_cpu)


@pytest.mark.parametrize("suite, max_value", [("all", 6000), ("pisano", 6000), ("classify", 6000),
                                              ("identities", 6000), ("wss", 6000), ("all", 30000)])
def test_one_pool_per_run_with_two_chunks_per_worker_in_flight(suite, max_value, monkeypatch):
    # at 6000 every suite with a pass takes at least two chunks of the
    # moduli it passes over, and at 30000 the run takes 15; the identities
    # have none.  Two workers keep at most four chunks in flight
    moduli = {
        "all": max_value - 1,  # [2, max_value]
        "pisano": max_value - 1,
        "classify": max_value // 2 - 1,  # the odd m in [3, max_value]
        "wss": max_value - 1,
    }.get(suite, 0)
    chunks = -(-moduli // verify_module._DIRECT_CHUNK)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_cpu = run_suites(suite, max_value)
    two_cpus(monkeypatch)
    pooled, pools, _, peak = _counted(lambda: run_suites(suite, max_value), monkeypatch)
    assert pools == (1 if moduli else 0)
    assert peak == min(chunks, 4)
    assert pooled == one_cpu
    assert all(r.passed for r in pooled)


# a pooled verify run, two chunks, in an interpreter whose default start
# method is spawn: a patch of pisano.profiles_direct made before the run
# must reach the workers, and a worker alone applies it
_SPAWN_DEFAULT_RUN = """
import dataclasses, json, multiprocessing, os
multiprocessing.set_start_method("spawn")
import fibmod.pisano as pisano
from fibmod.verify import run_suites

os.sched_getaffinity = lambda pid: {0, 1}  # a pool, even on a one-CPU host
MAIN = os.getpid()
real = pisano.profiles_direct

def wrong_in_a_worker(moduli):
    return [dataclasses.replace(prof, gamma=prof.gamma + 1) if prof.m == 100 and os.getpid() != MAIN else prof
            for prof in real(moduli)]

pisano.profiles_direct = wrong_in_a_worker
routes = {r.name: r for r in run_suites("pisano", 2100)}["fast-period-equals-direct"]
print(json.dumps([multiprocessing.get_start_method(), routes.passed, list(routes.failures)]))
"""


def test_patched_binding_reaches_workers_whatever_the_default_start_method():
    src = str(pathlib.Path(pisano_module.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _SPAWN_DEFAULT_RUN],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    method, passed, failures = json.loads(done.stdout)
    assert method == "spawn" and not passed
    assert len(failures) == 1 and failures[0].startswith("m=100 ")

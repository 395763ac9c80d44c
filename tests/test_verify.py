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
from fibmod.arith import factorize
from fibmod.errors import AnomalyError
from fibmod.fib import fib_pair_mod
from fibmod.pisano import PisanoProfile
from fibmod.verify import run_suites, suite_classify, suite_identities, suite_pisano, suite_wss

from helpers import CountingExecutor, binding_calls, is_prime_trial, two_cpus

_real_profiles_direct = pisano_module.profiles_direct
_real_zero_count_odd = classify_module.zero_count_odd
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


def test_odd_moduli_read_the_self_square_test(monkeypatch):
    real = wss_module.self_square_test

    def twenty_five_divisible(m):
        record = real(m)
        return dataclasses.replace(record, divisible=True) if m == 25 else record

    monkeypatch.setattr(wss_module, "self_square_test", twenty_five_divisible)
    odd_moduli = {r.name: r for r in suite_wss(300)}["odd-moduli-never-self-square"]
    assert not odd_moduli.passed
    assert odd_moduli.failures == ("m=25", "m=75", "m=175")


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
    # a fast profile that is wrong at m = 5 yet keeps period = zero count * rank
    real_profile = pisano_module.profile

    def fake(m):
        return PisanoProfile(m=5, gamma=20, alpha=10, upsilon=2) if m == 5 else real_profile(m)

    with mock.patch.object(pisano_module, "profile", fake):
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

    real_profile = pisano_module.profile
    with mock.patch.object(pisano_module, "profile", lambda m: Unprintable(*dataclasses.astuple(real_profile(m)))):
        results = {r.name: r for r in suite_pisano(300)}
    assert results["period-is-zerocount-times-rank"] == verify_module.PropertyResult(
        "period-is-zerocount-times-rank", True, 299, ()
    )


def _formula_wrong_at_45_and_121_raising_at_91(m):
    if m == 91:
        raise AnomalyError("injected at m=91")
    return _real_zero_count_odd(m) + (m in (45, 121))


@pytest.mark.parametrize("run", [
    lambda: run_suites("all", 300),
    lambda: run_suites("classify", 300),
    lambda: suite_classify(300),
], ids=["all", "classify", "suite_classify"])
def test_formula_checks_fail_in_modulus_order(run, monkeypatch):
    # each odd composite's formula value is compared with its scan as the
    # scan arrives, in m order, a value that raised kept as its message
    monkeypatch.setattr(classify_module, "zero_count_odd", _formula_wrong_at_45_and_121_raising_at_91)
    results = {r.name: r for r in run()}
    formula = results.pop("odd-zero-count-formula-matches-scan")
    assert formula.checked == 88  # the odd composites in [3, 300]
    assert formula.failures == ("m=45 value=3", "injected at m=91", "m=121 value=2")
    assert all(r.passed for r in results.values())


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("max_value", [2, 65, 66, 300])
def test_single_suites_equal_their_slice_of_all(max_value, faulted, monkeypatch):
    # no suite reads what another fills: each alone gives what it gives in all
    if faulted:
        monkeypatch.setattr(classify_module, "zero_count_odd", _formula_wrong_at_45_and_121_raising_at_91)
    shared = run_suites("all", max_value)
    for alone in (suite_pisano(max_value), suite_classify(max_value)):
        assert [r for r in shared if r.name in {a.name for a in alone}] == alone
    formula = {r.name: r for r in shared}["odd-zero-count-formula-matches-scan"]
    assert formula.passed == (not faulted or max_value < 45)


def _log_scans(directory, moduli):
    # stands in for pisano.profiles_direct in the pool's workers: one file per process
    with open(os.path.join(directory, str(os.getpid())), "a", encoding="utf-8") as fh:
        fh.writelines(f"{m}\n" for m in moduli)
    return _real_profiles_direct(moduli)


def _scans(directory):
    """Each process that scanned, and the moduli it scanned."""
    return {int(name): [int(m) for m in (directory / name).read_text().split()]
            for name in os.listdir(directory)}


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
        # one pool, given every chunk before any scan is read
        assert pools == 1 and peak == chunks
    monkeypatch.setattr(pool_module, "_init_worker", functools.partial(_note_worker, str(tmp_path)))
    assert run_suites("all", max_value) == reference
    assert all(r.passed for r in reference)
    assert len(os.listdir(tmp_path)) == (0 if workers == 1 else workers)


@pytest.mark.parametrize("suite", ["all", "pisano", "classify", "identities", "wss"])
def test_one_pool_per_run_given_every_chunk_at_once(suite, monkeypatch):
    # at 6000 every scanning suite takes at least two chunks
    moduli = {
        "all": 5999,  # [2, 6000]
        "pisano": 5999,
        "classify": sum(not is_prime_trial(m) for m in range(3, 6001, 2)),
    }.get(suite, 0)
    two_cpus(monkeypatch)
    _, pools, _, peak = _counted(lambda: run_suites(suite, 6000), monkeypatch)
    assert pools == (1 if moduli else 0)
    assert peak == -(-moduli // verify_module._DIRECT_CHUNK)


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

import dataclasses
import functools
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest

import fibmod.pisano as pisano_module
import fibmod.pool as pool_module
import fibmod.verify as verify_module
from fibmod.pisano import PisanoProfile
from fibmod.verify import run_suites, suite_classify, suite_identities, suite_pisano, suite_wss

from helpers import CountingExecutor, is_prime_trial

_real_profile_direct = pisano_module.profile_direct
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
    assert structure.failures[0].startswith("m=5 ")


def _log_scan(directory, m):
    # stands in for pisano.profile_direct in the pool's workers: one file per process
    with open(os.path.join(directory, str(os.getpid())), "a", encoding="utf-8") as fh:
        fh.write(f"{m}\n")
    return _real_profile_direct(m)


def _scans(directory):
    """Each process that scanned, and the moduli it scanned."""
    return {int(name): [int(m) for m in (directory / name).read_text().split()]
            for name in os.listdir(directory)}


def test_all_suites_scan_each_modulus_directly_once(tmp_path, monkeypatch):
    shared_dir, alone_dir = tmp_path / "shared", tmp_path / "alone"
    shared_dir.mkdir()
    alone_dir.mkdir()
    monkeypatch.setattr(pisano_module, "profile_direct", functools.partial(_log_scan, shared_dir))
    shared = run_suites("all", 300)
    monkeypatch.setattr(pisano_module, "profile_direct", functools.partial(_log_scan, alone_dir))
    # the classify suite on its own scans for itself, with the same outcome
    alone = suite_classify(300)
    monkeypatch.undo()
    scans = _scans(shared_dir)
    assert os.getpid() not in scans  # every direct scan runs in a worker
    assert sorted(m for moduli in scans.values() for m in moduli) == list(range(2, 301))
    scans = _scans(alone_dir)
    assert os.getpid() not in scans
    # of the odd moduli, only the composites: the formula is trivial at primes
    odd_composites = [m for m in range(3, 301, 2) if not is_prime_trial(m)]
    assert sorted(m for moduli in scans.values() for m in moduli) == odd_composites
    assert [r for r in shared if r.name in {a.name for a in alone}] == alone


def test_direct_scans_merge_in_modulus_order(monkeypatch):
    # a direct route wrong at one m past the first chunk: the merged stream
    # must pair its scan with m and no other modulus
    def wrong_at_1777(m):
        prof = _real_profile_direct(m)
        return dataclasses.replace(prof, gamma=prof.gamma + 1) if m == 1777 else prof

    monkeypatch.setattr(pisano_module, "profile_direct", wrong_at_1777)
    results = {r.name: r for r in suite_pisano(2000)}
    routes = results["fast-period-equals-direct"]
    assert not routes.passed
    assert len(routes.failures) == 1 and routes.failures[0].startswith("m=1777 ")


def _note_worker(pids_dir, *init_args):
    # stands in for the pool's worker initializer: records each started worker
    open(os.path.join(pids_dir, str(os.getpid())), "w").close()
    _real_init_worker(*init_args)


@pytest.mark.parametrize("max_value", [2, 3, 64, 65, 66, 1000])
def test_pooled_run_equals_in_process_scans_at_edge_sizes(max_value, tmp_path, monkeypatch):
    # one chunk of moduli [2, max_value] up to max_value = 65, two at 66
    chunks = -(-(max_value - 1) // verify_module._DIRECT_CHUNK)
    with monkeypatch.context() as patch:
        patch.setattr(pool_module, "ProcessPoolExecutor", CountingExecutor)
        patch.setattr(CountingExecutor, "max_workers", 0)
        patch.setattr(CountingExecutor, "peak", 0)
        reference = run_suites("all", max_value)
        assert CountingExecutor.max_workers == min(len(os.sched_getaffinity(0)), chunks)
        assert 0 < CountingExecutor.peak <= 2 * CountingExecutor.max_workers
    monkeypatch.setattr(pool_module, "_init_worker", functools.partial(_note_worker, str(tmp_path)))
    assert run_suites("all", max_value) == reference
    assert all(r.passed for r in reference)
    assert 1 <= len(os.listdir(tmp_path)) == min(len(os.sched_getaffinity(0)), chunks)


# a pooled verify run in an interpreter whose default start method is spawn:
# a patch of pisano.profile_direct made before the run must reach the
# workers, and a worker alone applies it
_SPAWN_DEFAULT_RUN = """
import dataclasses, json, multiprocessing, os
multiprocessing.set_start_method("spawn")
import fibmod.pisano as pisano
from fibmod.verify import run_suites

MAIN = os.getpid()
real = pisano.profile_direct

def wrong_in_a_worker(m):
    prof = real(m)
    return dataclasses.replace(prof, gamma=prof.gamma + 1) if m == 100 and os.getpid() != MAIN else prof

pisano.profile_direct = wrong_in_a_worker
routes = {r.name: r for r in run_suites("pisano", 300)}["fast-period-equals-direct"]
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

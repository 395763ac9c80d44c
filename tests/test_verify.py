from unittest import mock

import pytest

import fibmod.pisano as pisano_module
from fibmod.pisano import PisanoProfile
from fibmod.verify import run_suites, suite_classify, suite_identities, suite_pisano, suite_wss


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


def test_all_suites_scan_each_modulus_directly_once():
    scanned = []
    real_scan = pisano_module.profile_direct

    def counting(m):
        scanned.append(m)
        return real_scan(m)

    with mock.patch.object(pisano_module, "profile_direct", counting):
        shared = run_suites("all", 300)
    assert sorted(scanned) == list(range(2, 301))
    # the classify suite on its own scans for itself, with the same outcome
    alone = suite_classify(300)
    assert [r for r in shared if r.name in {a.name for a in alone}] == alone

"""Tests of the benchmark itself (not of fibmod).

Run from the repository root:  python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def toy_modules(clock):
    """Two namespaces that both bind leaf, as fibmod modules re-import helpers."""
    toy = types.ModuleType("toy")
    other = types.ModuleType("other")

    def leaf():
        clock.now += 1.0

    def inner():
        clock.now += 2.0
        toy.leaf()
        other.leaf()
        clock.now += 3.0

    def outer():
        clock.now += 4.0
        toy.inner()
        clock.now += 5.0

    def boom():
        toy.leaf()
        raise RuntimeError("boom")

    toy.leaf, toy.inner, toy.outer, toy.boom = leaf, inner, outer, boom
    other.leaf = leaf
    return toy, other


def toy_tracer(clock, toy, other):
    functions = {"toy.leaf": toy.leaf, "toy.inner": toy.inner, "toy.outer": toy.outer}
    return tracing.Tracer(functions, [toy, other], clock=clock)


def test_self_time_of_nested_spans():
    clock = FakeClock()
    toy, other = toy_modules(clock)
    with toy_tracer(clock, toy, other) as tr:
        with tr.root():
            toy.outer()
            clock.now += 0.5
    assert dict(tr.calls) == {"toy.leaf": 2, "toy.inner": 1, "toy.outer": 1, tracing.ROOT: 1}
    assert tr.self_s["toy.leaf"] == 2.0
    assert (tr.self_s["toy.inner"], tr.total_s["toy.inner"]) == (5.0, 7.0)
    assert (tr.self_s["toy.outer"], tr.total_s["toy.outer"]) == (9.0, 16.0)
    assert (tr.self_s[tracing.ROOT], tr.total_s[tracing.ROOT]) == (0.5, 16.5)
    assert tr.balance_error() == 0.0


def test_wrappers_removed_on_exit_and_on_error():
    clock = FakeClock()
    toy, other = toy_modules(clock)
    originals = (toy.leaf, toy.inner, toy.outer, other.leaf)
    with toy_tracer(clock, toy, other):
        assert toy.leaf is not originals[0] and other.leaf is toy.leaf
    assert (toy.leaf, toy.inner, toy.outer, other.leaf) == originals
    with pytest.raises(RuntimeError):
        with toy_tracer(clock, toy, other) as tr:
            toy.boom()
    assert (toy.leaf, toy.inner, toy.outer, other.leaf) == originals
    assert tr.calls["toy.leaf"] == 1


def wss_spec(tmp_path, trace):
    return {
        "kind": "wss", "mode": "work", "trace": trace, "seed": 3, "workers": 1,
        "lo": 10**7, "hi": 10**7 + run.BLOCK - 1, "root": ROOT, "tmp_dir": str(tmp_path),
    }


def test_traced_run_restores_fibmod_and_balances(tmp_path):
    before = child.bindings()
    result = child.run(wss_spec(tmp_path, trace=True))
    assert child.bindings() == before
    trace = result["trace"]
    assert trace["wrappers_restored"] and result["failed"] == 0
    assert trace["calls"]["wss.wss_check"] == result["items"] == result["checks"]["expected_primes"]
    assert trace["balance_error_s"] < 1e-6
    assert min(trace["self_s"].values()) >= 0.0


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run built a Tracer")

    monkeypatch.setattr(tracing, "Tracer", refuse)
    before = child.bindings()
    result = child.run(wss_spec(tmp_path, trace=False))
    assert child.bindings() == before
    assert "trace" not in result and result["failed"] == 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in run.PER_LAYER.items()}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_plan_depends_only_on_seed(workload):
    assert run.plan(workload, 5, 15, False) == run.plan(workload, 5, 15, False)
    assert len(run.plan(workload, 5, 15, True)) == 1
    if workload != "verify-all":  # the seed moves the window; verify reseeds its own draws
        assert len({json.dumps(run.plan(workload, s, 15, False)) for s in range(5)}) > 1


def test_good_reference_covers_every_window():
    digests = child.load_reference()["good_chunk_digests"]
    for seed in range(200):
        last = run.plan("good-2e6", seed, 60, False)[-1]
        assert (last["m_lo"] + last["count"] - run.GOOD_BASE) // run.GOOD_CHUNK <= len(digests)

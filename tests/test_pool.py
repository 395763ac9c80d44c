"""pool.ordered_map: map in this process for one worker, else a forked
pool that yields in item order with two calls per started worker in
flight."""

import concurrent.futures
import os
import time

import pytest

from fibmod.pool import ordered_map

from helpers import CountingExecutor, two_cpus

_calls = []


def _logged_square(x):
    _calls.append(x)
    return x * x


def _slow_when_even(x):
    # the even items finish after the odd ones submitted with them
    time.sleep(0.02 if x % 2 == 0 else 0)
    return x, os.getpid()


class _ShutdownLog(CountingExecutor):
    shutdowns = []

    def shutdown(self, wait=True, *, cancel_futures=False):
        _ShutdownLog.shutdowns.append(cancel_futures)


@pytest.fixture
def counted(monkeypatch):
    """CountingExecutor in place of the process pool, its counters at 0, the
    calls of _logged_square cleared, and eight usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    for counter in ("pools", "max_workers", "peak"):
        monkeypatch.setattr(CountingExecutor, counter, 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingExecutor)
    monkeypatch.setattr(_ShutdownLog, "shutdowns", [])
    _calls.clear()
    return CountingExecutor


@pytest.mark.parametrize("workers", [0, 1])
def test_one_worker_maps_here_with_no_executor(workers, counted):
    with ordered_map(_logged_square, iter(range(10)), workers) as results:
        assert _calls == []  # map is lazy: nothing runs before it is read
        assert list(results) == [x * x for x in range(10)]
    assert (counted.pools, counted.max_workers, counted.peak) == (0, 0, 0)


def test_a_real_pool_keeps_item_order_past_its_first_submits(monkeypatch):
    two_cpus(monkeypatch)  # a pool, even on a one-CPU host
    with ordered_map(_slow_when_even, range(12), 2) as results:
        got = list(results)
    assert [x for x, _ in got] == list(range(12))
    pids = {pid for _, pid in got}
    assert os.getpid() not in pids and 1 <= len(pids) <= 2


def test_two_items_per_worker_are_submitted_before_any_result_is_read(counted):
    with ordered_map(_logged_square, iter(range(10)), 2) as results:
        assert _calls == [0, 1, 2, 3] and counted.peak == 4
        assert next(results) == 0
        assert _calls == [0, 1, 2, 3, 4]  # one more as each result is read
        assert list(results) == [x * x for x in range(1, 10)]
    assert (counted.pools, counted.max_workers, counted.peak) == (1, 2, 4)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_exit_by_exception_cancels_the_queued_calls(error, counted, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ShutdownLog)
    with pytest.raises(error):
        with ordered_map(_logged_square, range(10), 2) as results:
            next(results)
            raise error
    # cancelled first; then the pool's exit waits for the calls in flight
    assert _ShutdownLog.shutdowns == [True, False]


def test_a_clean_exit_does_not_cancel(counted, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ShutdownLog)
    with ordered_map(_logged_square, range(10), 2) as results:
        assert sum(results) == sum(x * x for x in range(10))
    assert _ShutdownLog.shutdowns == [False]


@pytest.mark.parametrize("items, asked, pools, workers",
                         [(3, 16, 1, 3), (1, 16, 0, 0), (0, 16, 0, 0), (10, 2, 1, 2), (100, 16, 1, 8)])
def test_a_pool_starts_no_more_workers_than_items_in_flight(items, asked, pools, workers, counted):
    # a forked pool starts every worker it is given at its first submit, at
    # most one per item and per CPU, and keeps two items per worker in flight
    with ordered_map(_logged_square, iter(range(items)), asked) as results:
        assert list(results) == [x * x for x in range(items)]
    assert (counted.pools, counted.max_workers) == (pools, workers)
    assert counted.peak == min(items, 2 * workers)


@pytest.mark.parametrize("cpus, pools, workers", [(1, 0, 0), (2, 1, 2), (3, 1, 3)])
def test_a_pool_starts_no_more_workers_than_cpus(cpus, pools, workers, counted, monkeypatch):
    # a thousand workers asked for, over a thousand items: two in flight
    # per started worker, not per worker asked for
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with ordered_map(_logged_square, iter(range(1000)), 1000) as results:
        assert list(results) == [x * x for x in range(1000)]
    assert (counted.pools, counted.max_workers, counted.peak) == (pools, workers, 2 * workers)

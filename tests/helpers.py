"""Independent brute-force oracles used across the test modules.

Everything here is deliberately naive — plain recurrences, linear scans,
trial division — so the library's fast paths are checked against code that
shares none of their structure.  binding_calls records how often the
library calls one of its functions, not what it computes;
interrupted_scan stops a real scan between two of its blocks;
CountingExecutor runs a process pool's calls in the calling process; and
two_cpus lets verify start a pool on any host.
ladder_prime_period is the order reduction of the ladder route, which the
eigenvalue route of chi = +1 primes must match.
"""

import contextlib
import os
import sys
from concurrent.futures import Executor, Future
from functools import lru_cache
from math import isqrt
from unittest import mock

import pytest

import fibmod.wss as wss_module
from fibmod.arith import factorize
from fibmod.fib import matrix_pow_mod


class CountingExecutor(Executor):
    """Synchronous stand-in for ProcessPoolExecutor.  It runs each call at
    submit time and records the pools opened, the workers the last one was
    asked for and the most futures ever submitted to one pool and not yet
    consumed (their result taken)."""

    pools = 0
    peak = 0
    max_workers = 0

    def __init__(self, max_workers, **pool_options):
        CountingExecutor.pools += 1
        CountingExecutor.max_workers = max_workers
        self.waiting = 0

    def submit(self, fn, *args):
        self.waiting += 1
        CountingExecutor.peak = max(CountingExecutor.peak, self.waiting)
        return _CountedFuture(self, fn(*args))


class _CountedFuture(Future):
    def __init__(self, executor, value):
        super().__init__()
        self.executor = executor
        self.set_result(value)

    def result(self, timeout=None):
        self.executor.waiting -= 1
        return super().result(timeout)


def two_cpus(monkeypatch):
    """Let verify see two usable CPUs, so that it scans on a pool of two
    workers even on a one-CPU host, where it would scan in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@contextlib.contextmanager
def binding_calls(function):
    """Log the arguments of every call of function made through a fibmod
    module's binding of it: one argument as itself, several as a tuple."""
    calls = []
    name = function.__name__

    def counting(*args):
        calls.append(args[0] if len(args) == 1 else args)
        return function(*args)

    with contextlib.ExitStack() as stack:
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "fibmod" and getattr(module, name, None) is function:
                stack.enter_context(mock.patch.object(module, name, counting))
        yield calls


def factorize_calls():
    """Log the argument of every factorize call made through a fibmod module."""
    return binding_calls(factorize)


class ScanStopped(Exception):
    """Raised by interrupted_scan's checkpoint writer to stop its scan."""


def interrupted_scan(lo, hi, *, blocks, **options):
    """Run scan_wss(lo, hi, **options) and stop it, as Ctrl-C between two
    blocks would, once it has checkpointed blocks blocks; return the last
    checkpoint it wrote."""
    real_write = wss_module._write_checkpoint
    written = []

    def write(path, checkpoint):
        real_write(path, checkpoint)
        written.append(checkpoint)
        if len(written) == blocks:
            raise ScanStopped

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wss_module, "_write_checkpoint", write)
        with pytest.raises(ScanStopped):
            wss_module.scan_wss(lo, hi, **options)
    return written[-1]


def period_bound(p: int) -> int:
    """The bound t that the period of a prime p divides, from p mod 5:
    p - 1, 2(p + 1) or 4p for (p/5) = 1, -1, 0."""
    return {1: p - 1, 4: p - 1, 2: 2 * (p + 1), 3: 2 * (p + 1), 0: 4 * p}[p % 5]


def odd_prime_tests(p: int, gamma: int) -> int:
    """Halving tests an order reduction of the period bound t of the prime p
    to its period gamma makes at the odd primes q of t: with q^e
    exactly dividing t and q^v exactly dividing gamma, e - v successful
    tests, then one failing test when q still divides what is left."""
    tests = 0
    for q, e in factorize(period_bound(p)):
        if q != 2:
            v = 0
            while gamma % q ** (v + 1) == 0:
                v += 1
            tests += e - v + (v > 0)
    return tests


def route_pows(p: int, gamma: int) -> int:
    """Builtin pow calls prime_period makes for a prime p with chi = +1 and
    period gamma: the square root of 5 mod p (the least non-residue's power
    and 5's for p = 1 mod 8, one pow otherwise), its Hensel lift, phi to the
    bound's odd part, then one per odd-prime test."""
    return (2 if p % 8 == 1 else 1) + 2 + odd_prime_tests(p, gamma)


def ladder_prime_period(p: int) -> int:
    """Period of a prime p by order reduction over the factors of its bound
    t, each test a matrix power mod p: the ladder route, with no eigenvalue
    and no square root of 5."""
    gamma = period_bound(p)
    for q, _ in factorize(gamma):
        while gamma % q == 0:
            power = matrix_pow_mod(gamma // q, p)
            if (power.u_prev, power.u_cur, power.u_next) != (1, 0, 1):
                break
            gamma //= q
    return gamma


def fib_upto(n: int) -> list[int]:
    """[u_0, u_1, ..., u_n] by the plain additive recurrence."""
    values = [0, 1]
    while len(values) <= n:
        values.append(values[-1] + values[-2])
    return values[: n + 1]


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


@lru_cache(maxsize=4)
def _eratosthenes(n: int) -> tuple[int, ...]:
    """Primes <= n by a plain sieve of [0, n]."""
    keep = [True] * (n + 1)
    for d in range(2, isqrt(n) + 1):
        if keep[d]:
            for k in range(d * d, n + 1, d):
                keep[k] = False
    return tuple(d for d in range(2, n + 1) if keep[d])


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a full segmented sieve: the window is struck by
    every prime up to isqrt(hi), however narrow it is."""
    lo = max(lo, 2)
    window = [True] * (hi - lo + 1)
    for d in _eratosthenes(isqrt(hi)):
        for k in range(max(d * d, (lo + d - 1) // d * d), hi + 1, d):
            window[k - lo] = False
    return [lo + i for i, keep in enumerate(window) if keep]


def pisano_scan(m: int) -> int:
    """Period of the Fibonacci sequence mod m by scanning pairs."""
    if m == 1:
        return 1
    a, b = 0, 1
    for l in range(1, 6 * m + 1):
        a, b = b, (a + b) % m
        if (a, b) == (0, 1):
            return l
    raise AssertionError(f"no period below 6*{m}")


def rank_scan(m: int) -> int:
    """Least z >= 1 with u_z == 0 mod m, by scanning."""
    a, b = 1, 1  # (u_1, u_2)
    z = 1
    while a % m != 0:
        a, b = b, a + b
        z += 1
    return z


def zero_scan(m: int) -> int:
    """Zeros of (u_i mod m) over one full period, by scanning."""
    period = pisano_scan(m)
    a, b = 0, 1
    zeros = 0
    for _ in range(period):
        if a == 0:
            zeros += 1
        a, b = b, (a + b) % m
    return zeros

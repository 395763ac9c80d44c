"""Where the time of a verify run goes: the calling process against the
pool workers, which run the pass and its direct scans, and the serial
rate of the direct scan.

Runs run_suites(S, N) once and prints its wall time, the CPU time of the
calling process (getrusage RUSAGE_SELF) and that of the pool workers
(RUSAGE_CHILDREN, which counts a worker once the run's pool has joined
it), each as the difference across the run; it is 0 where the run opens no
pool, as for N up to one chunk or on one CPU.  A second run, with the
package's memos emptied first, counts the calls of arith.factorize, of
pisano._profile_with_period, the fast profile, of arith.is_prime and of
pisano._root5, the root of 5 mod p^2, made through every fibmod module's
binding of each, which it restores after: a prime whose facts are taken
twice shows as a second is_prime or _root5 call.  It counts too the
moduli that run's lanes scan, the lengths of the arguments of
pisano.profiles_direct summed: each suite names the moduli of a chunk
that its checks read scanned, and a modulus two suites name is scanned
once.  It runs in this
process on one CPU, os.sched_getaffinity reading one until it ends, so
that no pool starts and the pass's calls, which a pool's workers would
make, are counted too: the counts are those of the whole run, wherever
its pass runs.  The timed run is not patched.  Then it times, serially
(time.process_time) over [2, N], pisano.profile_direct and the lane scan
pisano.profiles_direct in verify's chunks, exits 1 if their profiles
differ, and prints the terms each walks, the sum of the periods, and the
time of each and per term.

    PYTHONPATH=src python3 tools/verify_split.py [--suite S] [--max N]
"""

import argparse
import os
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager

from fibmod import pisano
from fibmod.arith import factorize, is_prime
from fibmod.verify import _DIRECT_CHUNK, SUITE_NAMES, run_suites


def cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def fibmod_modules():
    return [module for name, module in list(sys.modules.items()) if name.split(".")[0] == "fibmod"]


@contextmanager
def counted_calls(weights):
    """A Counter, by name, of weight(*args) summed over the calls of each
    function of weights, {function: weight}, made through any fibmod
    module's binding of it; every binding is restored on exit."""
    calls = Counter()
    patched = []

    def counting(function, weight):
        def wrapper(*args):
            calls[function.__name__] += weight(*args)
            return function(*args)
        return wrapper

    try:
        for function, weight in weights.items():
            wrapper = counting(function, weight)
            for module in fibmod_modules():
                if getattr(module, function.__name__, None) is function:
                    patched.append((module, function))
                    setattr(module, function.__name__, wrapper)
        yield calls
    finally:
        for module, function in patched:
            setattr(module, function.__name__, function)


@contextmanager
def one_cpu():
    """os.sched_getaffinity reads one CPU inside, so verify opens no pool."""
    real = os.sched_getaffinity
    os.sched_getaffinity = lambda pid: {0}
    try:
        yield
    finally:
        os.sched_getaffinity = real


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--suite", choices=SUITE_NAMES, default="all")
    parser.add_argument("--max", type=int, default=10000, dest="max_value")
    args = parser.parse_args(argv)

    own, workers = cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    results = run_suites(args.suite, args.max_value)
    wall = time.perf_counter() - start
    own = cpu_s(resource.RUSAGE_SELF) - own
    workers = cpu_s(resource.RUSAGE_CHILDREN) - workers
    if not all(r.passed for r in results):
        parser.exit(1, "verify reported a failing property\n")
    for module in fibmod_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    once = dict.fromkeys((factorize, pisano._profile_with_period, is_prime, pisano._root5), lambda *args: 1)
    with one_cpu(), counted_calls({**once, pisano.profiles_direct: len}) as calls:
        run_suites(args.suite, args.max_value)

    moduli = range(2, args.max_value + 1)
    start = time.process_time()
    direct = [pisano.profile_direct(m) for m in moduli]
    direct_s = time.process_time() - start
    start = time.process_time()
    lanes = [prof for i in range(0, len(moduli), _DIRECT_CHUNK)
             for prof in pisano.profiles_direct(moduli[i : i + _DIRECT_CHUNK])]
    lanes_s = time.process_time() - start
    if lanes != direct:
        parser.exit(1, "the lane scan differs from profile_direct\n")
    terms = sum(prof.gamma for prof in direct)

    print(f"suite            {args.suite}")
    print(f"max              {args.max_value}")
    print(f"wall_s           {wall:.3f}")
    print(f"caller_cpu_s     {own:.3f}")
    print(f"workers_cpu_s    {workers:.3f}")
    print(f"factorize_calls  {calls['factorize']}")
    print(f"profile_calls    {calls['_profile_with_period']}")
    print(f"is_prime_calls   {calls['is_prime']}")
    print(f"root5_calls      {calls['_root5']}")
    print(f"scanned_moduli   {calls['profiles_direct']}")
    print(f"direct_terms     {terms}")
    print(f"direct_serial_s  {direct_s:.3f}")
    print(f"direct_ns_term   {direct_s / terms * 1e9:.1f}")
    print(f"lanes_serial_s   {lanes_s:.3f}")
    print(f"lanes_ns_term    {lanes_s / terms * 1e9:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

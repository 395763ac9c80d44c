"""Where the time of a verify run goes: the calling process against the
pool workers' direct scans, and the serial rate of the direct scan.

Runs run_suites(S, N) once and prints its wall time, the CPU time of the
calling process (getrusage RUSAGE_SELF) and that of the pool workers
(RUSAGE_CHILDREN, which counts a worker once the run's pool has joined
it), each as the difference across the run; it is 0 where the run opens no
pool, as for N up to one chunk or on one CPU.  Then it times, serially
(time.process_time) over [2, N], pisano.profile_direct and the lane scan
pisano.profiles_direct in verify's chunks, exits 1 if their profiles
differ, and prints the terms each walks, the sum of the periods, and the
time of each and per term.

    PYTHONPATH=src python3 tools/verify_split.py [--suite S] [--max N]
"""

import argparse
import resource
import time

from fibmod import pisano
from fibmod.verify import _DIRECT_CHUNK, SUITE_NAMES, run_suites


def cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


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
    print(f"direct_terms     {terms}")
    print(f"direct_serial_s  {direct_s:.3f}")
    print(f"direct_ns_term   {direct_s / terms * 1e9:.1f}")
    print(f"lanes_serial_s   {lanes_s:.3f}")
    print(f"lanes_ns_term    {lanes_s / terms * 1e9:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

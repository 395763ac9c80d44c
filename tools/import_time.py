"""Import time of fibmod in fresh interpreters, per checkout.

Runs `python3 -m compileall -q src` in each checkout, so no run times a
stale or missing bytecode cache.  Then, N times, in an order that rotates
across the checkouts, starts a fresh interpreter with the checkout's src
on PYTHONPATH and times `import fibmod, fibmod.verify` in it, the fibmod
imports of benchmarks/child.py.  Prints the median and interquartile range
in ms per checkout: a seconds-long look at what the benchmark's setup_s
would see, before a full run of tools/bench_pairs.py.

    python3 tools/import_time.py CHECKOUT [CHECKOUT ...] --runs 20
"""

import argparse
import os
import statistics
import subprocess
import sys

_TIMED = """
import time
start = time.perf_counter()
import fibmod, fibmod.verify
print(time.perf_counter() - start, fibmod.__file__)
"""


def import_s(checkout: str) -> float:
    """Seconds to import fibmod and fibmod.verify from checkout's src, in a
    fresh interpreter."""
    src = os.path.realpath(os.path.join(checkout, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _TIMED], cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    seconds, path = done.stdout.split()
    if not os.path.realpath(path).startswith(src + os.sep):
        sys.exit(f"imported fibmod from {path}, not from {src}")
    return float(seconds)


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    parser.add_argument("--runs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    for checkout in args.checkouts:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)
    times = {checkout: [] for checkout in args.checkouts}
    for i in range(args.runs):
        order = args.checkouts[i % len(args.checkouts):] + args.checkouts[: i % len(args.checkouts)]
        for checkout in order:
            times[checkout].append(import_s(checkout) * 1000)
    print(f"{'checkout':<40} {'median_ms':>10} {'iqr_ms':>8} {'runs':>5}")
    for checkout, ms in times.items():
        print(f"{checkout:<40} {statistics.median(ms):>10.2f} {iqr(ms):>8.2f} {len(ms):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

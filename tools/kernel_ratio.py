"""Per-prime cost of the Wall-Sun-Sun scan kernel against its bare index ladder.

Over the primes of [M, M + width), for each magnitude M: the kernel (the
scan's block, the window's sieve plus wss_check of each prime, with
prime_period's cache cleared),
the bare ladder u_{p - chi} mod p^2, each the best of --repeat runs, and
their ratio: each repeat times the kernel and then the ladder, so that a
drift in machine speed reaches both, and the ratio is the median of the
repeats' ratios.  From one untimed kernel run, per prime: the
Miller-Rabin modular exponentiations, the builtin pow calls of the chi = +1
eigenvalue route (square root of 5, its lift, the order reduction and the
index residue) and the fib_pair_mod ladders.

    PYTHONPATH=src python3 tools/kernel_ratio.py [--width W] [--repeat R] [M ...]
"""

import argparse
import builtins
import statistics
import timeit

from fibmod import arith, pisano, wss
from fibmod.fib import fib_pair_mod
from fibmod.pisano import _legendre5, prime_period
from fibmod.wss import _scan_block


def kernel(lo: int, hi: int) -> None:
    prime_period.cache_clear()
    _scan_block((lo, hi))


def ladder(primes: list[int]) -> None:
    for p in primes:
        fib_pair_mod(p - _legendre5(p), p * p)


def counts(lo: int, hi: int) -> tuple[int, int, int]:
    """Miller-Rabin exponentiations, route pow calls and fib_pair_mod
    ladders in one kernel run."""
    pows, route, ladders = [], [], []
    # arith's pow calls are all Miller-Rabin's, and pisano's all the
    # eigenvalue route's: a module global pow shadows the builtin
    arith.pow = lambda *args: pows.append(args) or builtins.pow(*args)
    pisano.pow = lambda *args: route.append(args) or builtins.pow(*args)
    # the kernel's ladders: prime_period's through pisano, wss_check's through wss
    for module in (pisano, wss):
        module.fib_pair_mod = lambda *args: ladders.append(args) or fib_pair_mod(*args)
    try:
        kernel(lo, hi)
    finally:
        del arith.pow, pisano.pow
        for module in (pisano, wss):
            module.fib_pair_mod = fib_pair_mod
    return len(pows), len(route), len(ladders)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("magnitudes", nargs="*", default=["1e5", "1e7", "1e9", "1e12"])
    parser.add_argument("--width", type=int, default=10**4)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    print(f"{'p ~':>6} {'primes':>7} {'kernel us':>10} {'ladder us':>10} {'ratio':>6} {'MR pow/p':>9} "
          f"{'route pow/p':>12} {'ladders/p':>10}")
    for text in args.magnitudes:
        lo = int(float(text))
        hi = lo + args.width - 1
        primes = arith.primes_in_range(lo, hi)
        runs = (lambda: kernel(lo, hi), lambda: ladder(primes))
        pairs = [[timeit.timeit(fn, number=1) for fn in runs] for _ in range(args.repeat)]
        k, b = (min(times) / len(primes) * 1e6 for times in zip(*pairs))
        ratio = statistics.median(tk / tb for tk, tb in pairs)
        pows, route, ladders = (count / len(primes) for count in counts(lo, hi))
        print(f"{text:>6} {len(primes):>7} {k:>10.1f} {b:>10.1f} {ratio:>6.1f} {pows:>9.2f} {route:>12.2f} "
              f"{ladders:>10.2f}")


if __name__ == "__main__":
    main()

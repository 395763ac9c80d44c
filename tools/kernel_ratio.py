"""Per-prime cost of the Wall-Sun-Sun scan kernel against its bare index ladder.

For each magnitude M, over the block [M, M + width): the kernel, which is
the block's share of its window sieve plus the block's check (_scan_block,
wss_check of each prime); the bare ladder u_{p - chi} mod p^2; each the
best of --repeat runs; and their ratio.  The window is the one a scan from M sieves at once (wss._blocks):
the fewest whole blocks at least min(isqrt(hi), 2**20) wide, and its sieve
costs each of its primes the same, so the sieve us/p column is the window
sieve's time over the window's primes.  The strike us/p column is the
check's strike pass alone (pisano._bound_factor_sieve of the block's
primes), which finds the odd primes of every prime's period bound.  Each repeat times the sieve,
the strike pass, the check and then the ladder, so that a drift in
machine speed reaches all four, and the ratio is the median of the
repeats' ratios.  From one untimed kernel run, per prime: the
Miller-Rabin modular exponentiations (the window sieve's over the
window's primes, plus the check's), the builtin pow calls of the chi = +1
eigenvalue route (square root of 5, its lift, the order reduction and the
index residue), the fib_pair_mod ladders and the Pollard rho calls
(arith._rho_factor) on the strike pass's cofactors.

    PYTHONPATH=src python3 tools/kernel_ratio.py [--width W] [--repeat R] [M ...]
"""

import argparse
import builtins
import statistics
import timeit

from fibmod import arith, pisano, wss
from fibmod.fib import fib_pair_mod
from fibmod.pisano import _legendre5
from fibmod.wss import _blocks, _scan_block, _window_blocks


def sieve(lo: int, width: int) -> list[tuple[int, int, list[int]]]:
    """The blocks, with their primes, of the window a scan from lo sieves."""
    return list(_blocks(lo, lo + _window_blocks(lo + width - 1, width) * width - 1, width))


def ladder(primes: list[int]) -> None:
    for p in primes:
        fib_pair_mod(p - _legendre5(p), p * p)


def counts(fn) -> tuple[int, int, int, int]:
    """Miller-Rabin exponentiations, route pow calls, fib_pair_mod
    ladders and rho calls in one run of fn."""
    pows, route, ladders, rhos = [], [], [], []
    rho = arith._rho_factor
    # arith's pow calls are all Miller-Rabin's, and pisano's all the
    # eigenvalue route's: a module global pow shadows the builtin
    arith.pow = lambda *args: pows.append(args) or builtins.pow(*args)
    pisano.pow = lambda *args: route.append(args) or builtins.pow(*args)
    arith._rho_factor = lambda n: rhos.append(n) or rho(n)
    # the kernel's ladders: the period's through pisano, wss_check's through wss
    for module in (pisano, wss):
        module.fib_pair_mod = lambda *args: ladders.append(args) or fib_pair_mod(*args)
    try:
        fn()
    finally:
        del arith.pow, pisano.pow
        arith._rho_factor = rho
        for module in (pisano, wss):
            module.fib_pair_mod = fib_pair_mod
    return len(pows), len(route), len(ladders), len(rhos)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("magnitudes", nargs="*", default=["1e5", "1e7", "1e9", "1e12"])
    parser.add_argument("--width", type=int, default=10**4)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    print(f"{'p ~':>6} {'primes':>7} {'kernel us':>10} {'sieve us/p':>11} {'strike us/p':>12} "
          f"{'ladder us':>10} {'ratio':>6} {'MR pow/p':>9} {'route pow/p':>12} {'ladders/p':>10} {'rho/p':>6}")
    for text in args.magnitudes:
        lo = int(float(text))
        blocks = sieve(lo, args.width)
        block = blocks[0]
        primes, window = len(block[2]), sum(len(b[2]) for b in blocks)
        runs = (
            lambda: sieve(lo, args.width),
            lambda: pisano._bound_factor_sieve(block[2]),
            lambda: _scan_block(block),
            lambda: ladder(block[2]),
        )
        repeats = [[timeit.timeit(fn, number=1) for fn in runs] for _ in range(args.repeat)]
        per_prime = [(ts / window, tx / primes, tc / primes, tl / primes) for ts, tx, tc, tl in repeats]
        s, x, c, b = (min(times) * 1e6 for times in zip(*per_prime))
        ratio = statistics.median((ps + pc) / pl for ps, _, pc, pl in per_prime)
        sieve_pows = counts(lambda: sieve(lo, args.width))[0]
        pows, route, ladders, rhos = (n / primes for n in counts(lambda: _scan_block(block)))
        print(f"{text:>6} {primes:>7} {s + c:>10.1f} {s:>11.1f} {x:>12.1f} {b:>10.1f} {ratio:>6.1f} "
              f"{sieve_pows / window + pows:>9.2f} {route:>12.2f} {ladders:>10.2f} {rhos:>6.2f}")


if __name__ == "__main__":
    main()

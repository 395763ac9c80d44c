"""Zero-count census of the primes of a range, by the fast routes.

For the primes p in [max(LO, 7), HI], prints how many have zero count
upsilon(p) = 1, 2 and 4 (pisano.zero_count) and their shares; how many are
good, 4 | period(p) (classify.is_good_prime); and how many have upsilon in
{1, 2}, the primes that divide some Lucas number, next to Lagarias's (1985)
density 2/3 of that set.  The primes come a window at a time, so memory
does not grow with the range.

    PYTHONPATH=src python3 tools/census.py LO HI
"""

import argparse
import time
from collections import Counter

from fibmod.arith import primes_in_range
from fibmod.classify import is_good_prime
from fibmod.pisano import zero_count

WINDOW = 1 << 18  # moduli per primes_in_range call


def census(lo: int, hi: int) -> Counter:
    """Counts over the primes in [max(lo, 7), hi]: "primes", "good", and
    each zero count 1, 2, 4."""
    counts = Counter()
    for start in range(max(lo, 7), hi + 1, WINDOW):
        for p in primes_in_range(start, min(start + WINDOW - 1, hi)):
            counts["primes"] += 1
            counts[zero_count(p)] += 1
            counts["good"] += is_good_prime(p)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("lo", type=lambda s: int(float(s)))
    parser.add_argument("hi", type=lambda s: int(float(s)))
    args = parser.parse_args(argv)
    start = time.perf_counter()
    counts = census(args.lo, args.hi)
    elapsed = time.perf_counter() - start
    total = counts["primes"]

    def share(n: int) -> str:
        return f"{n / total:.4f}" if total else "-"

    print(f"primes        {total}  in [{max(args.lo, 7)}, {args.hi}]  {elapsed:.1f} s")
    for upsilon in (1, 2, 4):
        print(f"upsilon={upsilon}     {counts[upsilon]}  {share(counts[upsilon])}")
    print(f"good          {counts['good']}  {share(counts['good'])}")
    lucas = counts[1] + counts[2]
    print(f"upsilon<=2    {lucas}  {share(lucas)}  Lagarias 2/3 = {2 / 3:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Time of wss-scan's results-file check, per checkout.

Writes an N-line results file in the format of wss._result_line, for odd p
up to the prime 10^12 + 39, its last line (default N = 10^6, about 107 MB).
Then, R times, in an order that rotates across the checkouts, starts a
fresh interpreter with the checkout's src on PYTHONPATH and times one
scan_wss call in it, twice:

  resume    a checkpoint at 10^12 + 39 of the range up to 10^12 + 40, and
            the file with an orphan line past it and a torn fragment: the
            call checks the file, cuts both, and scans the one number left,
            which is even;
  finished  a checkpoint of the range up to 10^12 + 39, complete, and the
            file as written: the call checks the file and returns.

Each call gets a fresh copy of the file, fsynced, and of the checkpoint,
made before its clock starts.  Prints, per checkout and pass, the median and interquartile
range of the call's seconds and the largest peak RSS of its process.

    python3 tools/resume_time.py CHECKOUT [CHECKOUT ...] --lines 1000000 --runs 5
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

LAST = 10**12 + 39  # a prime: the last line's p, and the checkpoint's frontier

# argv: checkpoint, results, lo, hi; prints the call's seconds and peak RSS in KiB
_TIMED = """
import resource, sys, time
from fibmod.wss import scan_wss
ck, out, lo, hi = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
start = time.perf_counter()
done = scan_wss(lo, hi, checkpoint_path=ck, results_path=out)
seconds = time.perf_counter() - start
if done.last_completed != hi:
    sys.exit(f"the scan stopped at {done.last_completed}, not {hi}")
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def line(p: int) -> str:
    """A results line for p, as wss._result_line writes it (is_wss false)."""
    chi = {0: 0, 1: 1, 4: 1}.get(p % 5, -1)
    return f'{{"p": {p}, "legendre5": {chi}, "index": {p - chi}, "residue": {p * p // 7}, "is_wss": false}}'


def write_results(path: str, lines: int) -> int:
    """Write lines results lines for odd p up to LAST; return the first p."""
    first = LAST - 2 * (lines - 1)
    with open(path, "w", encoding="utf-8") as fh:
        for p in range(first, LAST + 1, 2):
            fh.write(line(p) + "\n")
    return first


def timed(checkout: str, work: str, results: str, lo: int, finished: bool) -> tuple[float, int]:
    """Seconds of one scan_wss call from checkout's src, and its process's
    peak RSS in KiB."""
    ck, out = os.path.join(work, "ck.json"), os.path.join(work, "res.jsonl")
    for path in (ck, ck + ".lock", ck + ".tmp"):
        if os.path.exists(path):
            os.remove(path)
    hi = LAST if finished else LAST + 1
    shutil.copyfile(results, out)
    with open(out, "a", encoding="utf-8") as fh:
        if not finished:
            fh.write(line(LAST + 2) + "\n" + line(LAST + 4)[:30])
        fh.flush()
        os.fsync(fh.fileno())  # so the resume's own fsync writes only its cut
    with open(ck, "w", encoding="utf-8") as fh:
        json.dump({"anomaly_count": 0, "hits": [], "last_completed": LAST, "range_hi": hi,
                   "range_lo": lo, "wall_time_seconds": 0.0}, fh)
    src = os.path.realpath(os.path.join(checkout, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _TIMED, ck, out, str(lo), str(hi)], cwd=checkout, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src},
    )
    if done.returncode != 0:
        sys.exit(f"{checkout}: scan_wss failed:\n{done.stderr}")
    if os.path.getsize(out) != os.path.getsize(results):
        sys.exit(f"{checkout}: scan_wss left {os.path.getsize(out)} bytes of results, "
                 f"not {os.path.getsize(results)}")
    seconds, rss_kib = done.stdout.split()
    return float(seconds), int(rss_kib)


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    parser.add_argument("--lines", type=int, default=10**6)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.runs < 1 or args.lines < 1:
        parser.error("--lines and --runs must be >= 1")
    for checkout in args.checkouts:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)
    passes = ("resume", "finished")
    times = {(checkout, name): [] for checkout in args.checkouts for name in passes}
    rss = dict.fromkeys(times, 0)
    with tempfile.TemporaryDirectory() as work:
        results = os.path.join(work, "master.jsonl")
        lo = write_results(results, args.lines)
        for i in range(args.runs):
            order = args.checkouts[i % len(args.checkouts):] + args.checkouts[: i % len(args.checkouts)]
            for checkout in order:
                for name in passes:
                    seconds, kib = timed(checkout, work, results, lo, name == "finished")
                    times[checkout, name].append(seconds)
                    rss[checkout, name] = max(rss[checkout, name], kib)
    print(f"{'checkout':<40} {'pass':<9} {'median_s':>10} {'iqr_s':>9} {'peak_rss_mib':>12} {'runs':>5}")
    for (checkout, name), seconds in times.items():
        print(f"{checkout:<40} {name:<9} {statistics.median(seconds):>10.4f} {iqr(seconds):>9.4f} "
              f"{rss[checkout, name] / 1024:>12.1f} {len(seconds):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

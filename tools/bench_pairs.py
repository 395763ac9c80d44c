"""Alternated benchmark pairs of a parent checkout and a changed one.

Runs `python3 -m compileall -q src` in both checkouts, so neither times a
stale or missing bytecode cache.  Then, for each seed, runs
`benchmarks/run.py --trace 0` once in each checkout, alternating which runs
first.  For each end-to-end metric of BENCHMARK.json it prints both medians,
change/parent, the parent's interquartile range and the pairs the change
wins (ties count for neither side), and WORSE where the change's median is
worse than the parent's by more than the metric's bound, as a fraction of
the parent's median.  A metric whose parent IQR exceeds that bound is
marked noisy: its runs spread too widely for a WORSE flag to tell a
regression from noise, so such a flag asks for a re-run on fresh seeds.
One more row, pool_child_rss_mib, is not a BENCHMARK.json metric: the
median over each run's repetitions of the largest process the run's
children left (a pool worker where the workload runs a pool), read from the
run's .bench_out/BENCH_<workload>_seed<n>_trace0.json.
Exits 1 if a run is not correct or has failed items.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds 301-310
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

CHILD_RSS = "pool_child_rss_mib"


def run(checkout: str, workload: str, seed: int) -> dict:
    """The summary that benchmarks/run.py prints as its last line, at the
    run length the benchmark sets."""
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"{checkout} seed {seed}: run.py exited {done.returncode}: {done.stderr.strip()}")
    summary = json.loads(done.stdout.splitlines()[-1])
    bench = pathlib.Path(checkout, ".bench_out", f"BENCH_{workload}_seed{seed}_trace0.json")
    reps = json.loads(bench.read_text(encoding="utf-8"))["repetitions"]
    summary[CHILD_RSS] = statistics.median(r["child_rss_kib"] for r in reps) / 1024
    return summary


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def row(name: str, pairs: list[tuple[float, float]], better: str, bound: float | None) -> str:
    """One report line for (parent, change) values of a metric; WORSE past
    bound, and noisy where the parent's IQR exceeds it, if there is one."""
    sign = 1 if better == "lower" else -1
    before = statistics.median(p for p, _ in pairs)
    after = statistics.median(c for _, c in pairs)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    spread = iqr([p for p, _ in pairs])
    worse = bound is not None and sign * (after - before) > bound * before
    noisy = bound is not None and spread > bound * before
    ratio = after / before if before else float("nan")  # a run with no pool has no children
    flags = f"  WORSE (bound {bound:.0%})" if worse else ""
    if noisy:
        flags += "  noisy: parent IQR > bound" + (", re-run on fresh seeds" if worse else "")
    return (
        f"{name:<20} {before:>11.4g} {after:>11.4g} {ratio:>7.3f} {spread:>11.3g} "
        f"{f'{wins}/{len(pairs)}':>6}" + flags
    )


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """Report lines for paired runs (parent[i] with change[i]), and whether
    every run was correct with no failed items."""
    lines = [f"{'metric':<20} {'parent':>11} {'change':>11} {'ratio':>7} {'parent_iqr':>11} {'wins':>6}"]
    for spec in metrics:
        name = spec["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in zip(parent, change)]
        lines.append(row(name, pairs, spec["better"], spec["bound"]))
    pairs = [(p[CHILD_RSS], c[CHILD_RSS]) for p, c in zip(parent, change)]
    lines.append(row(CHILD_RSS, pairs, "lower", None) + "  (not a BENCHMARK.json metric)")
    bad = [r for r in parent + change if not r["correct"] or r["failed"] > 0]
    if bad:
        lines.append(f"{len(bad)} run(s) not correct or with failed items")
    return lines, not bad


def seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="S or FIRST-LAST")
    args = parser.parse_args(argv)
    checkouts = (args.parent, args.change)
    for checkout in checkouts:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)
    runs = ([], [])
    for i, seed in enumerate(args.seeds):
        for side in ((0, 1), (1, 0))[i % 2]:
            runs[side].append(run(checkouts[side], args.workload, seed))
            print(f"seed {seed} {('parent', 'change')[side]}: {json.dumps(runs[side][-1])}", file=sys.stderr)
    benchmark = json.loads((pathlib.Path(args.change) / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, ok = summarize(benchmark["end_to_end"], *runs)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

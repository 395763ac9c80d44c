"""fibmod benchmark: end-to-end rates and memory, and a traced per-layer split.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload good-2e6 --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 runs the traced repetition that gives the per-layer metrics,
plus the untraced repetitions it is compared with.  Every repetition runs
in a fresh interpreter (child.py), so fibmod's lru_caches start cold.  The
seed only moves the window of inputs within its magnitude; fibmod sees
nothing but those inputs.  Each run writes BENCH_<workload>_seed<n>_trace<t>.json
under .bench_out/ and prints one JSON summary as the last line of stdout.
Exit code 2 means the benchmark could not run (no fibmod sources, a bad
argument, a repetition that crashed or overran).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".bench_out"

REPS = 3  # fresh-interpreter repetitions per end-to-end run; metrics are their medians
SETUP_SAMPLES = 11  # set-up is also timed in extra import-only spawns, to this many samples
TRACE_SHARE = 4  # a traced run sizes each repetition at 1/TRACE_SHARE of --seconds
DEADLINE_S = 170  # a run never outlives this, whatever --seconds says

BLOCK = 10_000  # fibmod's default scan block: WSS windows are whole blocks
GOOD_BASE = 2_000_000
GOOD_CHUNK = 1_000
GOOD_START_CHUNKS = 64  # the seed picks the first chunk among these

COLD_CACHE_POLICY = (
    "one fresh interpreter per repetition: fibmod's lru_caches start empty; "
    "one untimed import first so bytecode caches exist before set-up is timed"
)

# unit: what one repetition grows by; units_per_s: how many the seed code
# processes per second on a 2-vCPU Intel Xeon VM under CPython 3.11, which sizes a run.
WORKLOADS = {
    "wss-1e12": {
        "kind": "wss", "base": 10**12, "start_blocks": 10**6, "workers": 1,
        "unit": "scan block of 10^4", "units_per_s": 3.1,
    },
    "wss-1e7-jobs2": {
        "kind": "wss", "base": 10**7, "start_blocks": 100, "workers": 2,
        "unit": "scan block of 10^4", "units_per_s": 19.4,
    },
    "good-2e6": {"kind": "good", "unit": "1000 consecutive moduli", "units_per_s": 2.1},
    "verify-all": {"kind": "verify", "max_value": 10_000, "unit": "run_suites call", "units_per_s": 0.12},
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "item_us_p50": "us",
    "item_us_p99": "us",
    "peak_rss_mib": "MiB",
    "worker_peak_rss_mib": "MiB",
}

# Per-layer metric -> (unit, end-to-end metric@workload it should move,
# metric@workload where it should move nothing).  Recorded before any
# optimisation lands, so a later change can be held to it.
ALL_WSS = ("wss-1e12", "wss-1e7-jobs2")
_PRIMES_IN_RANGE = (["throughput_per_s@wss-1e12"], ["throughput_per_s@wss-1e7-jobs2"])
_IS_PRIME = (["throughput_per_s@wss-1e7-jobs2"], [])
_FACTORIZE = (["throughput_per_s@wss-1e12", "throughput_per_s@wss-1e7-jobs2", "throughput_per_s@good-2e6"], [])
_FIB_PAIR = (
    ["throughput_per_s@wss-1e12", "throughput_per_s@wss-1e7-jobs2", "throughput_per_s@good-2e6", "wall_s@verify-all"],
    [],
)
_RANK_SCAN = (
    ["throughput_per_s@good-2e6", "item_us_p99@good-2e6", "wall_s@verify-all"],
    [f"throughput_per_s@{w}" for w in ALL_WSS],
)
_PERIOD = (["throughput_per_s@good-2e6", "peak_rss_mib@wss-1e7-jobs2"], [])
_AUDIT_ONLY = (["wall_s@verify-all"], ["throughput_per_s@wss-1e12", "throughput_per_s@wss-1e7-jobs2", "throughput_per_s@good-2e6"])
# is_good_direct powers the half-period matrix, so matrix_pow_mod runs on good-2e6 too
_MATRIX = (["wall_s@verify-all", "throughput_per_s@good-2e6"], [f"throughput_per_s@{w}" for w in ALL_WSS])
_GOOD = (["throughput_per_s@good-2e6", "item_us_p50@good-2e6", "wall_s@verify-all"], [f"throughput_per_s@{w}" for w in ALL_WSS])
_SCAN = (["wall_s@wss-1e7-jobs2"], ["throughput_per_s@good-2e6"])
_POOL = (["throughput_per_s@wss-1e7-jobs2", "peak_rss_mib@wss-1e7-jobs2"], ["throughput_per_s@wss-1e12"])
_NONE = ([], [])

PER_LAYER = {
    "arith.primes_in_range.calls": ("count", _PRIMES_IN_RANGE),
    "arith.primes_in_range.self_s": ("s", _PRIMES_IN_RANGE),
    "arith.primes_in_range.share": ("frac", _PRIMES_IN_RANGE),
    "arith.is_prime.calls": ("count", _IS_PRIME),
    "arith.is_prime.self_s": ("s", _IS_PRIME),
    "arith.is_prime.calls_per_item": ("calls/item", _IS_PRIME),
    "arith.factorize.calls": ("count", _FACTORIZE),
    "arith.factorize.self_s": ("s", _FACTORIZE),
    "fib.fib_pair_mod.calls": ("count", _FIB_PAIR),
    "fib.fib_pair_mod.self_s": ("s", _FIB_PAIR),
    "fib.fib_pair_mod.calls_per_item": ("calls/item", _FIB_PAIR),
    "pisano.zero_count.self_s": ("s", _RANK_SCAN),
    "pisano.rank_of_apparition.self_s": ("s", _RANK_SCAN),
    "pisano.prime_period.self_s": ("s", _PERIOD),
    "pisano.pisano_fast.self_s": ("s", _PERIOD),
    "pisano.lifting_exponent.self_s": ("s", _PERIOD),
    "pisano.prime_period.cache_entries": ("count", _PERIOD),
    "pisano.pisano_direct.self_s": ("s", _AUDIT_ONLY),
    "pisano.zero_count_direct.self_s": ("s", _AUDIT_ONLY),
    "fib.matrix_pow_mod.self_s": ("s", _MATRIX),
    "fib.fib_exact.self_s": ("s", _AUDIT_ONLY),
    "verify.suite_identities.wall_s": ("s", _AUDIT_ONLY),
    "verify.suite_pisano.wall_s": ("s", _AUDIT_ONLY),
    "verify.suite_classify.wall_s": ("s", _AUDIT_ONLY),
    "verify.suite_wss.wall_s": ("s", _AUDIT_ONLY),
    "classify.is_good_fast.self_s": ("s", _GOOD),
    "classify.is_good_direct.self_s": ("s", _GOOD),
    "wss.wss_check.calls": ("count", _SCAN),
    "wss.wss_check.self_s": ("s", _SCAN),
    "wss.scan_wss.self_s": ("s", _SCAN),
    "wss.scan_wss.child_cpu_s": ("s", _POOL),
    "wss.scan_wss.parallel_efficiency": ("frac", _POOL),
    "trace.unattributed_s": ("s", _NONE),
    "trace_overhead_frac": ("frac", _NONE),
}


class BenchError(Exception):
    """The benchmark cannot produce a result; run.py exits 2 without one."""


# ------------------------------------- planning -------------------------------------


def plan(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Specs of the work repetitions: the same seed always gives the same inputs."""
    cfg = WORKLOADS[workload]
    kind = cfg["kind"]
    rng = random.Random(f"{workload}:{seed}")
    if kind == "verify":
        reps = 1 if trace else max(2, round(seconds * cfg["units_per_s"]))
        return [{"kind": kind, "max_value": cfg["max_value"], "seed": seed} for _ in range(reps)]
    reps, share = (1, TRACE_SHARE) if trace else (REPS, REPS)
    units = max(1, round(seconds * cfg["units_per_s"] / share))
    if kind == "wss":
        lo = cfg["base"] + rng.randrange(cfg["start_blocks"]) * BLOCK
        width = units * BLOCK
        return [
            {"kind": kind, "lo": lo + i * width, "hi": lo + (i + 1) * width - 1, "workers": cfg["workers"], "seed": seed}
            for i in range(reps)
        ]
    first = rng.randrange(GOOD_START_CHUNKS)
    return [
        {
            "kind": kind, "base": GOOD_BASE, "chunk": GOOD_CHUNK, "seed": seed,
            "m_lo": GOOD_BASE + (first + i * units) * GOOD_CHUNK, "count": units * GOOD_CHUNK,
        }
        for i in range(reps)
    ]


# ------------------------------------- spawning -------------------------------------


class Spawner:
    """Starts child.py repetitions and bounds the run by one deadline."""

    def __init__(self, root: str):
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        self.tmp_dir = os.path.join(root, OUT_DIR, "tmp")
        os.makedirs(self.tmp_dir, exist_ok=True)
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def __call__(self, spec: dict, mode: str = "work", trace: bool = False) -> dict:
        spec = dict(spec, mode=mode, trace=trace, root=self.root, tmp_dir=self.tmp_dir)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S} s")
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers it forked
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"repetition overran the {DEADLINE_S} s deadline: {spec}") from exc
            raise
        if proc.returncode != 0:
            raise BenchError(f"repetition failed with exit {proc.returncode}:\n{stderr}")
        out = json.loads(stdout.strip().splitlines()[-1])
        out["setup_s"] = out.pop("ready") - started
        return out


# ------------------------------------ aggregation ------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(cfg: dict, reps: list[dict], setup: list[float]) -> tuple[dict, dict]:
    latencies = [t for r in reps for t in r.get("latencies_us", [])]
    if latencies:
        p50, p99 = percentile(latencies, 0.50), percentile(latencies, 0.99)
        basis = f"per goodness_report call, {len(latencies)} samples"
    else:
        # the timed call covers many items at once, so both read the mean per item
        p50 = p99 = statistics.median(r["wall_s"] / r["items"] * 1e6 for r in reps)
        basis = f"mean per item of each timed call, median of {len(reps)} repetitions"
    pooled = cfg.get("workers", 1) > 1
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "throughput_per_s": statistics.median(r["items"] / r["wall_s"] for r in reps),
        "item_us_p50": p50,
        "item_us_p99": p99,
        "peak_rss_mib": statistics.median(r["rss_kib"] for r in reps) / 1024,
        "worker_peak_rss_mib": statistics.median(r["child_rss_kib" if pooled else "rss_kib"] for r in reps) / 1024,
    }
    notes = {
        "item_us": basis,
        "worker_peak_rss_mib": "largest pool worker" if pooled else "no pool: the benchmarked process itself is the only worker",
        "setup_samples": len(setup),
    }
    return values, notes


def per_layer(cfg: dict, pool_run: dict, serial_run: dict, traced: dict) -> dict:
    tr = traced["trace"]
    calls, self_s, total_s = tr["calls"], tr["self_s"], tr["total_s"]
    wall = total_s[tracing.ROOT]
    items = traced["items"]
    values = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(layer, 0)
        elif stat == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif stat == "wall_s":
            values[name] = total_s.get(layer, 0.0)
        elif stat == "share":
            values[name] = self_s.get(layer, 0.0) / wall
        elif stat == "calls_per_item":
            values[name] = calls.get(layer, 0) / items
    workers = cfg.get("workers", 1)
    values["pisano.prime_period.cache_entries"] = traced["prime_period_cache_entries"]
    values["wss.scan_wss.child_cpu_s"] = pool_run["child_cpu_s"]
    values["wss.scan_wss.parallel_efficiency"] = pool_run["child_cpu_s"] / (workers * pool_run["wall_s"])
    values["trace.unattributed_s"] = self_s[tracing.ROOT]
    values["trace_overhead_frac"] = traced["wall_s"] / serial_run["wall_s"] - 1
    return values


# --------------------------------------- main ---------------------------------------


def provenance(root: str, args) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "fibmod")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None  # a checkout without .git (or without git) records none
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cold_cache_policy": COLD_CACHE_POLICY,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15, choices=range(1, 61), metavar="1..60")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def bench(root: str, args) -> dict:
    cfg = WORKLOADS[args.workload]
    spawn = Spawner(root)
    specs = plan(args.workload, args.seed, args.seconds, bool(args.trace))
    spawn(specs[0], mode="setup")  # untimed: leaves bytecode caches behind
    if args.trace:
        # untraced with the workload's workers, untraced serial, traced serial
        reps = [spawn(specs[0])]
        if cfg.get("workers", 1) > 1:
            reps.append(spawn(dict(specs[0], workers=1)))
        traced = spawn(dict(specs[0], workers=1), trace=True)
        values = per_layer(cfg, reps[0], reps[-1], traced)
        reps.append(traced)
        units, notes = {k: v[0] for k, v in PER_LAYER.items()}, {}
        extra = {"predictions": {k: {"moves": v[1][0], "unchanged": v[1][1]} for k, v in PER_LAYER.items()}}
    else:
        setup = [spawn(specs[0], mode="setup")["setup_s"] for _ in range(SETUP_SAMPLES - len(specs))]
        reps = [spawn(spec) for spec in specs]
        setup += [r["setup_s"] for r in reps]
        values, notes = end_to_end(cfg, reps, setup)
        units, extra = END_TO_END, {"setup_samples_s": setup}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    document = {
        "benchmark": "fibmod",
        "workload": args.workload,
        "config": cfg,
        **provenance(root, args),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "notes": notes,
        "repetitions": [{k: v for k, v in r.items() if k != "latencies_us"} for r in reps],
        **extra,
    }
    path = os.path.join(root, OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
    return {k: document[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fibmod", "__init__.py")):
        print("no fibmod sources under src/fibmod: run from the root of a fibmod checkout", file=sys.stderr)
        return 2
    try:
        summary = bench(root, args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition with a JSON spec as its only
argument, so fibmod's lru_caches start empty, as they do for a user of the
command line.  The script imports fibmod, builds the inputs the spec names,
takes a timestamp (the end of set-up), makes the timed calls, reads its
resource usage, checks every output outside the timed region, and prints
one JSON line of raw figures.  It imports fibmod from PYTHONPATH, which
run.py points at the checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import tempfile
import time
from contextlib import ExitStack
from math import isqrt

import fibmod
from fibmod import classify, pisano, verify, wss
from fibmod.errors import AnomalyError
from fibmod.fib import matrix_pow_mod

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

RESIDUE_SAMPLE = 64


# ------------------------------ independent oracles ------------------------------


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a sieve written here, sharing no code with fibmod."""
    lo = max(lo, 2)
    root = isqrt(hi)
    small = bytearray(b"\x01") * (root + 1)
    small[:2] = b"\x00\x00"
    for d in range(2, isqrt(root) + 1):
        if small[d]:
            small[d * d :: d] = bytes(len(range(d * d, root + 1, d)))
    window = bytearray(b"\x01") * (hi - lo + 1)
    for d in range(2, root + 1):
        if small[d]:
            first = max(d * d, -(-lo // d) * d)
            window[first - lo :: d] = bytes(len(range(first, hi + 1, d)))
    return [lo + i for i, flag in enumerate(window) if flag]


def good_digest(good: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, good)).encode()).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------ workloads ------------------------------------
# Each kind has prepare (set-up: build inputs), call (the timed region) and
# check (after timing; returns attempted, failed and the check details).


def prepare_wss(spec, stack):
    tmp = stack.enter_context(tempfile.TemporaryDirectory(dir=spec["tmp_dir"]))
    return {
        "lo": spec["lo"],
        "hi": spec["hi"],
        "workers": spec["workers"],
        "checkpoint": os.path.join(tmp, "scan.json"),
        "results": os.path.join(tmp, "results.jsonl"),
    }


def call_wss(inp):
    wss.scan_wss(
        inp["lo"],
        inp["hi"],
        workers=inp["workers"],
        checkpoint_path=inp["checkpoint"],
        results_path=inp["results"],
    )


def check_wss(spec, inp, out):
    with open(inp["results"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    with open(inp["checkpoint"], encoding="utf-8") as fh:
        checkpoint = json.load(fh)
    got = [r["p"] for r in records]
    expected = primes_between(inp["lo"], inp["hi"])
    missing = len(set(expected) - set(got))
    extra = len(set(got) - set(expected))
    unordered = sum(1 for a, b in zip(got, got[1:]) if b <= a)
    rng = random.Random(spec["seed"])
    sample = rng.sample(records, min(RESIDUE_SAMPLE, len(records)))
    residue_bad = 0
    for r in sample:
        p = r["p"]
        chi = 0 if p % 5 == 0 else (1 if p % 5 in (1, 4) else -1)
        residue = matrix_pow_mod(p - chi, p * p).u_cur
        if (r["legendre5"], r["index"], r["residue"], r["is_wss"]) != (chi, p - chi, residue, residue == 0):
            residue_bad += 1
    checks = {
        "expected_primes": len(expected),
        "result_lines": len(records),
        "missing": missing,
        "extra": extra,
        "not_increasing": unordered,
        "hits": len(checkpoint["hits"]),
        "anomaly_count": checkpoint["anomaly_count"],
        "last_completed_ok": checkpoint["last_completed"] == inp["hi"],
        "residues_sampled": len(sample),
        "residues_bad": residue_bad,
    }
    attempted = max(len(expected), len(records))
    failed = missing + extra + unordered + len(checkpoint["hits"])
    failed += checkpoint["anomaly_count"] + residue_bad + (not checks["last_completed_ok"])
    return len(records), attempted, min(failed, attempted), checks


def prepare_good(spec, stack):
    return list(range(spec["m_lo"], spec["m_lo"] + spec["count"]))


def call_good(moduli):
    good, anomalies, latencies = [], [], []
    clock = time.perf_counter
    for m in moduli:
        start = clock()
        try:
            if classify.goodness_report(m, "both").is_good:
                good.append(m)
        except AnomalyError:
            anomalies.append(m)
        latencies.append(clock() - start)
    return good, anomalies, latencies


def check_good(spec, moduli, out):
    good, anomalies, _ = out
    digests = load_reference()["good_chunk_digests"]
    failed = len(anomalies)
    bad_chunks = []
    size = spec["chunk"]
    for lo in range(moduli[0], moduli[-1] + 1, size):
        chunk = [m for m in good if lo <= m < lo + size]
        if good_digest(chunk) != digests[(lo - spec["base"]) // size]:
            bad_chunks.append(lo)
            failed += size
    checks = {"good": len(good), "anomalies": anomalies, "bad_chunks": bad_chunks}
    return len(moduli), len(moduli), min(failed, len(moduli)), checks


def prepare_verify(spec, stack):
    return {"max_value": spec["max_value"], "seed": spec["seed"]}


def call_verify(inp):
    return verify.run_suites("all", inp["max_value"], inp["seed"])


def check_verify(spec, inp, results):
    want = load_reference()["verify_checked"]
    got = {r.name: r.checked for r in results}
    failing = [r.name for r in results if not r.passed]
    checked = sum(got.values())
    failed = sum(max(1, len(r.failures)) for r in results if not r.passed)
    if got != want:
        failed += sum(abs(got.get(k, 0) - want.get(k, 0)) for k in set(got) | set(want))
    checks = {"properties": len(results), "failing": failing, "checked_matches_reference": got == want}
    attempted = max(checked, sum(want.values()))
    return checked, attempted, min(failed, attempted), checks


KINDS = {
    "wss": (prepare_wss, call_wss, check_wss),
    "good": (prepare_good, call_good, check_good),
    "verify": (prepare_verify, call_verify, check_verify),
}


# ------------------------------------ repetition ------------------------------------


def fibmod_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "fibmod" or name.startswith("fibmod.")]


def bindings():
    return {(m.__name__, k): v for m in fibmod_modules() for k, v in vars(m).items()}


def run(spec: dict) -> dict:
    prepare, call, check = KINDS[spec["kind"]]
    with ExitStack() as stack:
        inputs = prepare(spec, stack)
        ready = time.monotonic()
        if spec["mode"] == "setup":
            return {"ready": ready}
        tracer = None
        with ExitStack() as traced:
            if spec["trace"]:
                before = bindings()
                tracer = traced.enter_context(
                    tracing.Tracer(tracing.resolve(tracing.TARGETS), fibmod_modules())
                )
                traced.enter_context(tracer.root())
            start = time.perf_counter()
            out = call(inputs)
            wall = time.perf_counter() - start
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        items, attempted, failed, checks = check(spec, inputs, out)
    result = {
        "ready": ready,
        "wall_s": wall,
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "rss_kib": own.ru_maxrss,
        "child_rss_kib": kids.ru_maxrss,
        "child_cpu_s": kids.ru_utime + kids.ru_stime,
        "prime_period_cache_entries": pisano.prime_period.cache_info().currsize,
    }
    if spec["kind"] == "good":
        result["latencies_us"] = [t * 1e6 for t in out[2]]
    if tracer is not None:
        restored = bindings() == before
        balance = tracer.balance_error()
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "balance_error_s": balance,
            "wrappers_restored": restored,
        }
        # a broken trace is a failed run: its layer figures cannot be trusted
        if not restored or balance > 1e-6 * max(wall, 1.0):
            result["failed"] = result["attempted"]
    return result


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(fibmod.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported fibmod from {fibmod.__file__}, not from {src}")
    print(json.dumps(run(spec)))


if __name__ == "__main__":
    main()

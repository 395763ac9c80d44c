"""Record the reference outputs that child.py checks runs against.

Run once, on a commit whose outputs are trusted, from the repository root:

    PYTHONPATH=src python3 benchmarks/record_reference.py

It writes benchmarks/reference.json with
  * good_chunk_digests: for each chunk of 1000 consecutive moduli from
    2*10^6 on, a digest of the good numbers goodness_report(m, "both")
    finds in it, covering every window a seed and --seconds up to 60 can
    select;
  * verify_checked: the number of checks each property of
    run_suites("all", 10000) makes, which no seed changes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402  (needs the directory on sys.path first)
import run  # noqa: E402


def good_chunks_needed() -> int:
    units = round(60 * run.WORKLOADS["good-2e6"]["units_per_s"] / run.REPS)
    return run.GOOD_START_CHUNKS + run.REPS * units


def main() -> None:
    digests = []
    for k in range(good_chunks_needed()):
        lo = run.GOOD_BASE + k * run.GOOD_CHUNK
        good, anomalies, _ = child.call_good(range(lo, lo + run.GOOD_CHUNK))
        if anomalies:
            raise SystemExit(f"goodness routes disagree at {anomalies}; refusing to record")
        digests.append(child.good_digest(good))
    results = child.call_verify({"max_value": run.WORKLOADS["verify-all"]["max_value"], "seed": 0})
    if not all(r.passed for r in results):
        raise SystemExit("a verify property fails; refusing to record")
    reference = {
        "good_chunk_digests": digests,
        "verify_checked": {r.name: r.checked for r in results},
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

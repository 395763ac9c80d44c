"""Command-line front end.

Commands:

    fib       exact or modular Fibonacci values
    profile   period / rank / zero-count profile of a modulus
    good      good-number classification (direct, fast, or both routes)
    wss-scan  checkpointed Wall-Sun-Sun prime scan over a range
    verify    run the property suites over a bounded range

With --json, exactly one JSON document (the CommandResult: command, inputs,
output, elapsed_ms) is written to stdout and any human-readable text goes
to stderr.  Exit codes: 0 success, 1 usage, 2 I/O, a checkpoint in use by
another scan, or a dead worker process of wss-scan or verify (re-running
the same scan resumes from its checkpoint), 3 WSS hit found, 4
theorem/criterion anomaly, 130 interrupted (SIGINT; a scan resumes from its
checkpoint too).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from dataclasses import asdict

from . import classify, pisano, verify, wss
from .errors import AnomalyError, CheckpointError
from .fib import fib_exact, fib_pair_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_WSS_HIT = 3
EXIT_ANOMALY = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

CHECKPOINT_DIR_ENV = "FIBMOD_CHECKPOINT_DIR"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fibmod", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fib", help="Fibonacci value, exact or mod m")
    p.add_argument("n", type=int)
    p.add_argument("--mod", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("profile", help="period / rank / zero count of m")
    p.add_argument("m", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("good", help="good-number classification")
    p.add_argument("m", type=int, nargs="?", default=None)
    p.add_argument("--range", nargs=2, type=int, metavar=("LO", "HI"), default=None)
    p.add_argument("--method", choices=("direct", "fast", "both"), default="both")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("wss-scan", help="scan primes for the Wall-Sun-Sun property")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--block-size", type=int, default=wss.DEFAULT_BLOCK_SIZE)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", choices=verify.SUITE_NAMES, required=True)
    p.add_argument("--max", dest="max_value", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_fib(args):
    if args.mod is None:
        value = fib_exact(args.n)
        output = {"n": args.n, "value": value}
    else:
        value = fib_pair_mod(args.n, args.mod)[0]
        output = {"n": args.n, "mod": args.mod, "value": value}
    # the value, not its text: main prints it with int-to-str unlimited
    return {"n": args.n, "mod": args.mod}, output, value, EXIT_OK


def _cmd_profile(args):
    prof = pisano.profile(args.m)
    output = {"m": prof.m, "gamma": prof.gamma, "alpha": prof.alpha, "upsilon": prof.upsilon}
    human = (
        f"m={prof.m} period={prof.gamma} rank={prof.alpha} zero_count={prof.upsilon}"
    )
    return {"m": args.m}, output, human, EXIT_OK


def _cmd_good(args):
    if (args.m is None) == (args.range is None):
        raise ValueError("give exactly one of: a single m, or --range LO HI")
    if args.m is not None:
        report = classify.goodness_report(args.m, method=args.method)
        output = asdict(report)
        human = f"m={args.m} good={report.is_good} (method={args.method})"
    else:
        lo, hi = args.range
        if lo < 2 or hi < lo:
            raise ValueError(f"need 2 <= lo <= hi, got ({lo}, {hi})")
        # the reports are not kept, but the good list is: about a tenth of the
        # range (ROADMAP item 4)
        good = [m for m in range(lo, hi + 1) if classify.goodness_report(m, args.method).is_good]
        output = {
            "lo": lo,
            "hi": hi,
            "method": args.method,
            "checked": hi - lo + 1,
            "good": good,
        }
        human = f"[{lo}, {hi}]: {len(good)} good numbers (method={args.method})"
    inputs = {"m": args.m, "range": args.range, "method": args.method}
    return inputs, output, human, EXIT_OK


def _default_checkpoint_path(lo: int, hi: int) -> str:
    directory = os.environ.get(CHECKPOINT_DIR_ENV, ".")
    return os.path.join(directory, f"wss-scan-{lo}-{hi}.checkpoint.json")


def _cmd_wss_scan(args):
    checkpoint = args.checkpoint or _default_checkpoint_path(args.lo, args.hi)
    ck = wss.scan_wss(
        args.lo,
        args.hi,
        workers=args.jobs,
        checkpoint_path=checkpoint,
        results_path=args.out,
        block_size=args.block_size,
    )
    output = {**asdict(ck), "checkpoint": checkpoint}
    human = (
        f"scanned [{ck.range_lo}, {ck.range_hi}] "
        f"hits={len(ck.hits)} anomalies={ck.anomaly_count} checkpoint={checkpoint}"
    )
    inputs = {
        "from": args.lo,
        "to": args.hi,
        "jobs": args.jobs,
        "checkpoint": checkpoint,
        "out": args.out,
    }
    code = EXIT_OK
    if ck.hits:
        print(f"WALL-SUN-SUN HIT: {[h.p for h in ck.hits]}", file=sys.stderr)
        code = EXIT_WSS_HIT
    elif ck.anomaly_count:
        print(f"criterion anomalies: {ck.anomaly_count}", file=sys.stderr)
        code = EXIT_ANOMALY
    return inputs, output, human, code


def _cmd_verify(args):
    results = verify.run_suites(args.suite, args.max_value, seed=args.seed)
    stream = sys.stderr if args.json else sys.stdout
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name} (checked={r.checked})"
        if not r.passed:
            line += f" counterexamples: {'; '.join(r.failures)}"
        print(line, file=stream)
    failed = [r for r in results if not r.passed]
    inputs = {"suite": args.suite, "max": args.max_value, "seed": args.seed}
    output = {**inputs, "passed": not failed, "results": [asdict(r) for r in results]}
    human = f"{len(results) - len(failed)}/{len(results)} properties passed"
    return inputs, output, human, EXIT_ANOMALY if failed else EXIT_OK


@contextmanager
def _int_digits_unlimited():
    """No limit on int-to-str digits inside, the interpreter's own limit
    restored on exit; CPython before 3.10.7 has no limit to lift."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# each handler returns (inputs, output, human line, exit code); main times
# it and writes either the --json document or the human line
_HANDLERS = {
    "fib": _cmd_fib,
    "profile": _cmd_profile,
    "good": _cmd_good,
    "wss-scan": _cmd_wss_scan,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        return int(exc.code or 0)
    try:
        t0 = time.perf_counter()
        inputs, output, human, code = _HANDLERS[args.command](args)
        elapsed_ms = (time.perf_counter() - t0) * 1000
        with _int_digits_unlimited():  # fib's exact values reach 208,988 digits
            if args.json:
                doc = {
                    "command": args.command,
                    "inputs": inputs,
                    "output": output,
                    "elapsed_ms": elapsed_ms,
                }
                print(json.dumps(doc, indent=2))
            else:
                print(human)
        return code
    except ValueError as exc:
        print(f"fibmod: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as exc:
        print(f"fibmod: checkpoint error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"fibmod: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenExecutor as exc:
        print(f"fibmod: worker process died: {exc}", file=sys.stderr)
        return EXIT_IO
    except AnomalyError as exc:
        print(f"fibmod: ANOMALY: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    except KeyboardInterrupt:
        print("fibmod: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED

if __name__ == "__main__":
    sys.exit(main())

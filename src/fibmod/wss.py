"""Wall-Sun-Sun prime testing, scanning, and self-square enumeration.

A prime p is a Wall-Sun-Sun prime when p^2 divides u_{p - (p/5)}, where
(p/5) is the Legendre symbol; equivalently p^2 | u_{period(p)}.  No such
prime is known.  Every check here evaluates *both* criteria and records
whether they agree — the equivalence is audited, not assumed.

The companion question for composite moduli: m^2 | u_{period(m)} is
conjectured (equivalently to WSS non-existence) to hold only for m = 6 and
m = 12; enumerate_self_square reproduces that at desk scale.

scan_wss walks a prime range in fixed-size blocks, optionally fanned out
to worker processes.  Results are merged in ascending block order and a
single writer owns the checkpoint file, so scans are deterministic and
resumable: identical ranges yield byte-identical checkpoints (modulo wall
time) regardless of worker count or interruption pattern.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from .arith import factorize, is_prime, primes_in_range, two_adic_split
from .errors import AnomalyError, CheckpointError
from .fib import _binomial_sum, fib_pair_mod
from .pisano import pisano_fast, prime_period, prime_power_period

DEFAULT_BLOCK_SIZE = 10_000


@dataclass(frozen=True)
class WssRecord:
    """Outcome of both Wall-Sun-Sun criteria for one prime."""

    p: int
    legendre5: int
    index: int  # p - (p/5)
    residue_fib_index_mod_p2: int
    residue_fib_gamma_mod_p2: int
    is_wss: bool
    criteria_agree: bool


@dataclass(frozen=True)
class SelfSquareRecord:
    """Whether m^2 divides u_{period(m)}."""

    m: int
    gamma: int
    residue_mod_m2: int
    divisible: bool


@dataclass(frozen=True)
class OddSelfSquareReport:
    """Evidence that an odd m is not self-square, with the per-prime-power
    ingredient p^2e not dividing u_{period(p^e)}."""

    m: int
    gamma: int
    residue_mod_m2: int
    ok: bool
    prime_power_ok: tuple[tuple[int, int, bool], ...]


@dataclass(frozen=True)
class ScanCheckpoint:
    """Persisted progress of a scan over [range_lo, range_hi]."""

    range_lo: int
    range_hi: int
    last_completed: int
    hits: tuple[WssRecord, ...]
    anomaly_count: int
    wall_time_seconds: float


def legendre5(p: int) -> int:
    """Legendre symbol (p/5): 0 at p = 5, +1 for p = +-1, -1 for p = +-2 mod 5."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _legendre5(p)


def _legendre5(p: int) -> int:
    r = p % 5
    if r == 0:
        return 0
    return 1 if r in (1, 4) else -1


def wss_check(p: int) -> WssRecord:
    """Evaluate both Wall-Sun-Sun criteria for a prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    chi = _legendre5(p)
    index = p - chi
    p2 = p * p
    residue_index = fib_pair_mod(index, p2)[0]
    residue_gamma = fib_pair_mod(prime_period(p), p2)[0]
    return WssRecord(
        p=p,
        legendre5=chi,
        index=index,
        residue_fib_index_mod_p2=residue_index,
        residue_fib_gamma_mod_p2=residue_gamma,
        is_wss=residue_index == 0,
        criteria_agree=(residue_index == 0) == (residue_gamma == 0),
    )


def self_square_test(m: int) -> SelfSquareRecord:
    """u_{period(m)} mod m^2, flagged when it vanishes."""
    if m < 2:
        raise ValueError(f"self-square test needs m >= 2, got {m}")
    gamma = pisano_fast(m)
    residue = fib_pair_mod(gamma, m * m)[0]
    return SelfSquareRecord(m=m, gamma=gamma, residue_mod_m2=residue, divisible=residue == 0)


def enumerate_self_square(m_max: int) -> list[SelfSquareRecord]:
    """All m in [2, m_max] with m^2 | u_{period(m)}; expected {6, 12}."""
    if m_max < 2:
        raise ValueError(f"enumeration bound must be >= 2, got {m_max}")
    found = []
    for m in range(2, m_max + 1):
        record = self_square_test(m)
        if record.divisible:
            found.append(record)
    return found


def cofactor_mod(a: int, g: int, n_l: int) -> int:
    """The quotient u_{a*g} / u_g reduced mod n_l, without any division.

    Valid whenever u_g == 0 mod the base of n_l (e.g. g a period index):
    the quotient then equals
        sum_{i=1}^{a} C(a,i) * u_i * u_g^(i-1) * u_{g-1}^(a-i)
    with exact binomials reduced mod n_l.
    """
    if a < 1:
        raise ValueError(f"multiplier must be >= 1, got {a}")
    if g < 1:
        raise ValueError(f"period index must be >= 1, got {g}")
    if n_l < 1:
        raise ValueError(f"modulus must be >= 1, got {n_l}")
    return _binomial_sum(g, a, n_l, shift=1)


def two_power_valuation_check(k: int) -> tuple[int, bool]:
    """2-adic valuation of u_{period(2^k)} and whether (2^k)^2 fails to divide it.

    The valuation is k + 1 for k >= 2 (and 1 at k = 1), so computing mod
    2^(2k + 8) pins it exactly with headroom to spare.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    gamma = 3 << (k - 1)
    residue = fib_pair_mod(gamma, 1 << (2 * k + 8))[0]
    if residue == 0:
        raise AnomalyError(f"valuation of u_period(2^{k}) exceeds {2 * k + 8}")
    valuation = two_adic_split(residue)[0]
    return valuation, valuation < 2 * k


def odd_self_square_check(m: int) -> OddSelfSquareReport:
    """Verify m^2 does not divide u_{period(m)} for odd m >= 3.

    Also confirms the per-prime-power ingredient: p^2e does not divide
    u_{period(p^e)} for each prime power in m.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"odd self-square check needs odd m >= 3, got {m}")
    gamma = pisano_fast(m)
    residue = fib_pair_mod(gamma, m * m)[0]
    entries = []
    for p, e in factorize(m).factors:
        gamma_pe = prime_power_period(p, e).gamma_pe
        entries.append((p, e, fib_pair_mod(gamma_pe, p ** (2 * e))[0] != 0))
    return OddSelfSquareReport(
        m=m,
        gamma=gamma,
        residue_mod_m2=residue,
        ok=residue != 0,
        prime_power_ok=tuple(entries),
    )


# --------------------------- range scanning ---------------------------


def _scan_block(bounds: tuple[int, int]) -> list[WssRecord]:
    lo, hi = bounds
    return [wss_check(p) for p in primes_in_range(lo, hi)]


def _write_checkpoint(path: str, ck: ScanCheckpoint) -> None:
    text = json.dumps(asdict(ck), indent=2, sort_keys=True) + "\n"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


_CHECKPOINT_FIELDS = {
    "range_lo": int,
    "range_hi": int,
    "last_completed": int,
    "hits": list,
    "anomaly_count": int,
    "wall_time_seconds": (int, float),
}


def load_checkpoint(path: str) -> ScanCheckpoint:
    """Parse and validate a checkpoint file; corrupt files refuse to load."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CheckpointError(f"checkpoint {path} is not an object")
    for field, kind in _CHECKPOINT_FIELDS.items():
        if field not in raw or not isinstance(raw[field], kind):
            raise CheckpointError(f"checkpoint {path} missing or invalid field {field!r}")
    values = {field: raw[field] for field in _CHECKPOINT_FIELDS}
    try:
        values["hits"] = tuple(WssRecord(**h) for h in values["hits"])
    except TypeError as exc:
        raise CheckpointError(f"checkpoint {path} carries malformed hit records") from exc
    values["wall_time_seconds"] = float(values["wall_time_seconds"])
    ck = ScanCheckpoint(**values)
    if not ck.range_lo <= ck.last_completed <= ck.range_hi:
        raise CheckpointError(
            f"checkpoint {path} progress {ck.last_completed} outside "
            f"[{ck.range_lo}, {ck.range_hi}]"
        )
    return ck


def _result_line(record: WssRecord) -> str:
    return json.dumps(
        {
            "p": record.p,
            "legendre5": record.legendre5,
            "index": record.index,
            "residue": record.residue_fib_index_mod_p2,
            "is_wss": record.is_wss,
        }
    )


def _append_results(path: str, records: list[WssRecord]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(_result_line(record) + "\n")


def _trim_results(path: str, last_completed: int) -> None:
    """Drop result lines beyond the checkpointed frontier (re-scanned on resume).

    The file is streamed, not held in memory.  A final fragment without a
    newline is a torn append, which lies past the frontier, and is dropped.
    Any other unreadable line raises CheckpointError: dropping it would
    lose a prime that the resumed scan never visits again.
    """
    if not os.path.exists(path):
        return
    tmp = path + ".tmp"
    try:
        with open(path, "rb") as src, open(tmp, "wb") as dst:
            for number, line in enumerate(src, 1):
                if not line.endswith(b"\n"):
                    break
                try:
                    keep = json.loads(line)["p"] <= last_completed
                except (ValueError, KeyError, TypeError) as exc:
                    raise CheckpointError(
                        f"results file {path} line {number} is unreadable: {exc}"
                    ) from exc
                if keep:
                    dst.write(line)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def scan_wss(
    lo: int,
    hi: int,
    workers: int = 1,
    checkpoint_path: str | None = None,
    results_path: str | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    max_blocks: int | None = None,
) -> ScanCheckpoint:
    """Test every prime in [lo, hi] for the Wall-Sun-Sun property.

    Progress is checkpointed after every completed block; a scan pointed at
    an existing checkpoint for the same range resumes where it left off.
    max_blocks bounds the number of blocks processed in this call (the scan
    can be continued later), which is also how interruption is simulated in
    tests.
    """
    if lo < 2 or hi < lo:
        raise ValueError(f"need 2 <= lo <= hi, got ({lo}, {hi})")
    if 2 * (hi + 1) >= 2**64:
        # factorize, which bounds each prime's period, works below 2^64
        raise ValueError(f"hi = {hi} is out of range: need 2 * (hi + 1) < 2^64")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    if max_blocks is not None and max_blocks < 1:
        raise ValueError(f"max_blocks must be >= 1, got {max_blocks}")

    start = lo
    hits: list[WssRecord] = []
    anomalies = 0
    prev_wall = 0.0
    if checkpoint_path and os.path.exists(checkpoint_path):
        previous = load_checkpoint(checkpoint_path)
        if (previous.range_lo, previous.range_hi) != (lo, hi):
            raise CheckpointError(
                f"checkpoint {checkpoint_path} covers "
                f"[{previous.range_lo}, {previous.range_hi}], not [{lo}, {hi}]"
            )
        if previous.last_completed >= hi:
            return previous
        start = previous.last_completed + 1
        hits = list(previous.hits)
        anomalies = previous.anomaly_count
        prev_wall = previous.wall_time_seconds
        if results_path:
            _trim_results(results_path, previous.last_completed)
    elif results_path:
        # a fresh scan owns the results file from its first line
        open(results_path, "w", encoding="utf-8").close()

    began = time.perf_counter()
    blocks = [(s, min(s + block_size - 1, hi)) for s in range(start, hi + 1, block_size)]
    if max_blocks is not None:
        blocks = blocks[:max_blocks]

    parallel = workers > 1 and len(blocks) > 1
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        # both maps yield in block order: merged output is worker-count invariant
        scanned = pool.map(_scan_block, blocks) if parallel else map(_scan_block, blocks)
        for (_, block_hi), records in zip(blocks, scanned):
            if results_path:
                _append_results(results_path, records)
            hits.extend(r for r in records if r.is_wss)
            anomalies += sum(1 for r in records if not r.criteria_agree)
            ck = ScanCheckpoint(
                range_lo=lo,
                range_hi=hi,
                last_completed=block_hi,
                hits=tuple(hits),
                anomaly_count=anomalies,
                wall_time_seconds=prev_wall + (time.perf_counter() - began),
            )
            if checkpoint_path:
                _write_checkpoint(checkpoint_path, ck)
    return ck

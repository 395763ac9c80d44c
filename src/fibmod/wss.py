"""Wall-Sun-Sun prime testing, scanning, and self-square enumeration.

A prime p is a Wall-Sun-Sun prime when p^2 divides u_{p - (p/5)}, where
(p/5) is the Legendre symbol; equivalently p^2 | u_{period(p)}.  No such
prime is known.  Every check here evaluates *both* criteria and records
whether they agree — the equivalence is audited, not assumed.  The two
come from two algorithms where they can: the period criterion is always a
fast-doubling ladder mod p^2, and for (p/5) = +1 the index criterion is
pisano's eigenvalue route, (x - 1/x)/s with s^2 == 5 and x = phi^(p-1)
mod p^2; for (p/5) = -1, and at 2 and 5, it is a ladder too.

The companion question for composite moduli: m^2 | u_{period(m)} is
conjectured (equivalently to WSS non-existence) to hold only for m = 6 and
m = 12; enumerate_self_square reproduces that at desk scale.

scan_wss walks a prime range in fixed-size blocks, optionally fanned out
to worker processes.  Results are merged in ascending block order, and one
process, holding a flock on <checkpoint>.lock, writes the checkpoint, so
scans are deterministic and resumable: identical ranges yield byte-identical
checkpoints (modulo wall time) regardless of worker count or interruption
pattern.  chi = (p/5) and every period come from pisano.  Each block
fills arith's block store from its sieve, with the factors of every
prime's period bound and each (p/5) = +1 prime's root of 5, and clears it
once its primes are checked.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, dataclass

from .arith import _BLOCK_STORE, factorize, primes_in_range, two_adic_split
from .errors import AnomalyError, CheckpointError
from .fib import _binomial_sum, fib_pair_mod
from .pisano import (
    _block_facts,
    _index_residue,
    _legendre5,
    _period_from_factors,
    pisano_fast,
    prime_period,
    prime_power_period,
)
from .pool import in_order, worker_pool

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


def wss_check(p: int) -> WssRecord:
    """Evaluate both Wall-Sun-Sun criteria for a prime."""
    gamma = prime_period(p)  # rejects a non-prime p
    chi = _legendre5(p)
    index = p - chi
    p2 = p * p
    # two algorithms for the two criteria: for chi = +1 the index residue
    # comes from the eigenvalue route, the period's residue from a ladder
    residue_index = _index_residue(p) if chi == 1 else fib_pair_mod(index, p2)[0]
    residue_gamma = fib_pair_mod(gamma, p2)[0]
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
    return [r for r in map(self_square_test, range(2, m_max + 1)) if r.divisible]


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
    gamma = prime_power_period(2, k)
    residue = fib_pair_mod(gamma, 1 << (2 * k + 8))[0]
    if residue == 0:
        raise AnomalyError(f"valuation of u_period(2^{k}) exceeds {2 * k + 8}")
    valuation = two_adic_split(residue)[0]
    return valuation, valuation < 2 * k


def odd_self_square_check(m: int) -> OddSelfSquareReport:
    """Verify m^2 does not divide u_{period(m)} for odd m >= 3.

    Also confirms the per-prime-power ingredient: p^2e does not divide
    u_{period(p^e)} for each prime power in m.  Both read the one
    factorization of m.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"odd self-square check needs odd m >= 3, got {m}")
    factors = factorize(m)
    gamma = _period_from_factors(factors)
    residue = fib_pair_mod(gamma, m * m)[0]
    entries = tuple(
        (p, e, fib_pair_mod(prime_power_period(p, e), p ** (2 * e))[0] != 0) for p, e in factors
    )
    return OddSelfSquareReport(
        m=m, gamma=gamma, residue_mod_m2=residue, ok=residue != 0, prime_power_ok=entries
    )


# --------------------------- range scanning ---------------------------


def _scan_block(bounds: tuple[int, int]) -> tuple[int, list[WssRecord]]:
    lo, hi = bounds
    primes = primes_in_range(lo, hi)
    try:
        _BLOCK_STORE.update(_block_facts(primes))
        records = [wss_check(p) for p in primes]
    finally:
        _BLOCK_STORE.clear()  # its facts served this block; keep none past it
    return hi, records


def _fsync_directory(path: str) -> None:
    """Fsync the directory that holds path."""
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_checkpoint(path: str, ck: ScanCheckpoint) -> None:
    """Atomically replace the checkpoint at path, recycling the old one's inode.

    The new bytes go into the spare <path>.tmp in place, and the old
    checkpoint's inode becomes the next spare.  No write frees an inode, and
    so no write frees a disk block: where a filesystem trims freed blocks
    synchronously (ext4 mounted with discard), a freeing rename costs tens of
    milliseconds.  The steps:

      1. write and fsync the spare <path>.tmp in place;
      2. link <path> to <path>.old, after removing a stale .old;
      3. rename .tmp over <path>, which frees nothing while .old links the
         old inode;
      4. rename .old to .tmp: the old inode is the next spare;
      5. fsync the directory.

    Crash analysis: at every step <path> names a complete, fsynced file,
    the old checkpoint up to step 3 and the new one from then on.
    load_checkpoint reads only <path>, never .tmp or .old.  The next write
    overwrites a stale .tmp and removes a stale .old.  The first write has
    no checkpoint to link, and a filesystem without hard links refuses
    os.link: both take the plain rename, which frees the old inode.
    """
    data = (json.dumps(asdict(ck), indent=2, sort_keys=True) + "\n").encode()
    spare, old = path + ".tmp", path + ".old"
    fd = os.open(spare, os.O_WRONLY | os.O_CREAT, 0o666)  # no O_TRUNC: it frees blocks
    try:
        written = 0
        while written < len(data):
            written += os.pwrite(fd, data[written:], written)
        os.ftruncate(fd, len(data))  # drop the tail of a longer stale spare
        os.fsync(fd)
    finally:
        os.close(fd)
    with suppress(FileNotFoundError):
        os.remove(old)
    try:
        os.link(path, old)
    except OSError:
        os.replace(spare, path)
    else:
        os.replace(spare, path)
        os.replace(old, spare)
    _fsync_directory(path)


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
        # durable before the checkpoint that moves the frontier past them
        fh.flush()
        os.fsync(fh.fileno())


def _trim_results(path: str, last_completed: int) -> None:
    """Cut the result lines beyond the checkpointed frontier (re-scanned on resume).

    The file is cut in place, at its first line past the frontier, so a
    resume writes no copy and needs no free disk for one; the file is
    streamed, not held in memory.  A final fragment without a newline is a
    torn append, which lies past the frontier, and is cut.  Every complete
    line is parsed, and an unreadable one raises CheckpointError: cutting it
    would lose a prime that the resumed scan never visits again.  So does a
    missing file, which would lack every line up to the frontier.
    """
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        raise _missing_results(path, last_completed) from None
    with fh:
        size, past = 0, False
        for number, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                break
            try:
                past |= json.loads(line)["p"] > last_completed
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckpointError(
                    f"results file {path} line {number} is unreadable: {exc}"
                ) from exc
            if not past:
                size += len(line)
        fh.truncate(size)
        os.fsync(fh.fileno())


def _missing_results(path: str, frontier: int) -> CheckpointError:
    return CheckpointError(
        f"results file {path} is missing the lines up to the checkpoint's frontier {frontier}"
    )


@contextmanager
def _scan_lock(path: str):
    """Hold <checkpoint>.lock for the whole scan; a second scan fails at once.

    The kernel drops a flock when its holder dies, and the file is never
    deleted: a later scan would lock a new file while this one holds the old.
    Before it lets go, the scan removes its spare <checkpoint>.tmp, so a
    scan leaves only the checkpoint and the lock file behind.
    """
    with open(path + ".lock", "a", encoding="utf-8") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CheckpointError(f"checkpoint {path} is in use by another scan") from None
        try:
            yield lock
        finally:  # the spare that _write_checkpoint recycles
            with suppress(FileNotFoundError):
                os.remove(path + ".tmp")


def scan_wss(
    lo: int,
    hi: int,
    workers: int = 1,
    *,
    checkpoint_path: str,
    results_path: str | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> ScanCheckpoint:
    """Test every prime in [lo, hi] for the Wall-Sun-Sun property.

    Progress is checkpointed after every completed block; a scan pointed at
    an existing checkpoint for the same range resumes where it left off, or
    returns it if it is complete, and then its results file, if it names
    one, must exist and hold the lines up to there.
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

    with _scan_lock(checkpoint_path) as lock:
        start = lo
        hits: list[WssRecord] = []
        anomalies = 0
        prev_wall = 0.0
        if os.path.exists(checkpoint_path):
            previous = load_checkpoint(checkpoint_path)
            if (previous.range_lo, previous.range_hi) != (lo, hi):
                raise CheckpointError(
                    f"checkpoint {checkpoint_path} covers "
                    f"[{previous.range_lo}, {previous.range_hi}], not [{lo}, {hi}]"
                )
            if previous.last_completed >= hi:
                if results_path and not os.path.exists(results_path):
                    raise _missing_results(results_path, hi)
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
        # a range is lazy: blocks are made as the scan reaches them
        starts = range(start, hi + 1, block_size)
        blocks = ((s, min(s + block_size - 1, hi)) for s in starts)

        # a forked pool starts all its workers at once: no more than there are blocks
        workers = min(workers, len(starts))
        parallel = workers > 1
        with worker_pool(workers, lock) if parallel else nullcontext() as pool:
            # both iterators yield in block order: merged output is worker-count invariant
            scanned = (
                in_order(pool, _scan_block, blocks, 2 * workers) if parallel
                else map(_scan_block, blocks)
            )
            for block_hi, records in scanned:
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
                _write_checkpoint(checkpoint_path, ck)
        return ck

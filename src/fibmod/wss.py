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

scan_wss walks a prime range in fixed-size blocks: here with one worker,
else on a pool with at most 2 * workers blocks in flight, whose queued
blocks an early exit, Ctrl-C among them, cancels.  Every scan is a resume:
a fresh one from nothing done, a resumed or finished one from its
checkpoint, once its results file's last line up to there is that of the
last prime there.  The blocks' records, merged in ascending order, fold
into one ScanCheckpoint, which one process, holding a flock on
<checkpoint>.lock, writes, so scans are deterministic and resumable:
identical ranges yield byte-identical checkpoints (modulo wall time)
regardless of worker count or interruption pattern.  chi = (p/5) and
every period come from pisano.  The scan's own process sieves a window of
whole blocks at a time, at least min(isqrt(hi), 2**20) wide and capped at
hi, with every prime up to min(isqrt(window hi), 2**20)
(arith._prime_window), so below 1.1e12 no scanned prime needs a
Miller-Rabin proof; each block goes to _scan_block with its primes, read
from the window's flags as the block is made.  A block's primes are
checked inside pisano._block_facts, which holds the factors of every
prime's period bound and each (p/5) = +1 prime's root of 5 for the block's
checks alone.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import time
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields, replace

from .arith import _prime_window, _sieve_base, is_prime, two_adic_split
from .errors import AnomalyError, CheckpointError
from .fib import _binomial_sum, fib_pair_mod
from .pisano import (
    _block_facts,
    _index_residue,
    _legendre5,
    pisano_fast,
    prime_period,
    prime_power_period,
)
from .pool import ordered_map

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


# --------------------------- range scanning ---------------------------


def _window_blocks(hi: int, size: int) -> int:
    """Blocks per sieve window of a scan up to hi: the fewest whole blocks
    at least min(isqrt(hi), 2**20) wide."""
    return -(-_sieve_base(hi) // size)


def _blocks(start: int, hi: int, size: int) -> Iterator[tuple[int, int, list[int]]]:
    """(lo, hi, primes) of each block of [start, hi], made as the scan reaches it.

    The primes come from a window of _window_blocks whole blocks, capped at
    hi, sieved at once: each base prime is visited once per window, not once
    per block, and a block's primes are read from the window's flags only
    when the block is made, so no list of the window's primes is held.
    """
    span = _window_blocks(hi, size) * size
    for window_lo in range(start, hi + 1, span):
        window_hi = min(window_lo + span - 1, hi)
        primes = _prime_window(window_lo, window_hi)
        for block_lo in range(window_lo, window_hi + 1, size):
            block_hi = min(block_lo + size - 1, window_hi)
            yield block_lo, block_hi, primes(block_lo, block_hi)


def _scan_block(block: tuple[int, int, list[int]]) -> tuple[int, list[WssRecord]]:
    """Check the primes of the block (lo, hi, primes), every one proven."""
    _, hi, primes = block
    with _block_facts(primes):
        return hi, [wss_check(p) for p in primes]


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


# the types json.load may give for each field type that a checkpoint holds,
# matched exactly: a bool is no int, but an int may stand for a float
_JSON_KINDS = {"int": (int,), "bool": (bool,), "float": (int, float), "tuple[WssRecord, ...]": (list,)}
_CHECKPOINT_FIELDS = {f.name: _JSON_KINDS[f.type] for f in fields(ScanCheckpoint)}
_HIT_FIELDS = {f.name: _JSON_KINDS[f.type] for f in fields(WssRecord)}


def _scanned_hit(h, lo: int, last: int) -> bool:
    """Whether h is a hit record that a scan of [lo, last] could have
    written: WssRecord's fields with their types, for a prime p in range,
    whose symbol, index and agreement follow from p and its residues."""
    if not (isinstance(h, dict) and h.keys() == _HIT_FIELDS.keys()
            and all(type(h[field]) in kinds for field, kinds in _HIT_FIELDS.items())):
        return False
    p, chi = h["p"], h["legendre5"]
    return (
        h["is_wss"] and h["residue_fib_index_mod_p2"] == 0
        and lo <= p <= last and p < 2**64 and is_prime(p)
        and chi == _legendre5(p) and h["index"] == p - chi
        and h["criteria_agree"] == (h["residue_fib_gamma_mod_p2"] == 0)
    )


def load_checkpoint(path: str) -> ScanCheckpoint:
    """Parse and validate a checkpoint file; corrupt files refuse to load."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CheckpointError(f"checkpoint {path} is not an object")
    for field, kinds in _CHECKPOINT_FIELDS.items():
        if field not in raw or type(raw[field]) not in kinds:
            raise CheckpointError(f"checkpoint {path} missing or invalid field {field!r}")
    ck = ScanCheckpoint(**{field: raw[field] for field in _CHECKPOINT_FIELDS})
    # a scan writes each hit once, in p order
    if not (all(_scanned_hit(h, ck.range_lo, ck.last_completed) for h in ck.hits)
            and all(a["p"] < b["p"] for a, b in zip(ck.hits, ck.hits[1:]))):
        raise CheckpointError(f"checkpoint {path} carries malformed hit records")
    # json.load takes NaN and Infinity, which json.dumps would write back bare
    if ck.anomaly_count < 0 or not 0 <= ck.wall_time_seconds < math.inf:
        raise CheckpointError(
            f"checkpoint {path} carries a negative count or a negative or non-finite time"
        )
    if not ck.range_lo <= ck.last_completed <= ck.range_hi:
        raise CheckpointError(
            f"checkpoint {path} progress {ck.last_completed} outside "
            f"[{ck.range_lo}, {ck.range_hi}]"
        )
    return replace(ck, hits=tuple(WssRecord(**h) for h in ck.hits),
                   wall_time_seconds=float(ck.wall_time_seconds))


def _result_line(record: WssRecord) -> str:
    """The record's results line: json.dumps of its five fields, formatted directly."""
    return (
        f'{{"p": {record.p}, "legendre5": {record.legendre5}, "index": {record.index}, '
        f'"residue": {record.residue_fib_index_mod_p2}, "is_wss": {"true" if record.is_wss else "false"}}}'
    )


def _append_results(path: str, records: list[WssRecord]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(_result_line(record) + "\n")
        # durable before the checkpoint that moves the frontier past them
        fh.flush()
        os.fsync(fh.fileno())


def _last_prime(lo: int, frontier: int) -> int | None:
    """The largest prime of [lo, frontier], or None: the p of a results file's
    last line up to the frontier.  Below 2**64 a prime gap is under 1,550."""
    return next((n for n in range(frontier, lo - 1, -1) if is_prime(n)), None)


def _trim_results(path: str, lo: int, last_completed: int) -> None:
    """Cut the result lines beyond the checkpointed frontier (re-scanned on resume).

    The file is cut in place, at its first line past the frontier, so a
    resume writes no copy and needs no free disk for one; the file is
    streamed, not held in memory.  A final fragment without a newline is a
    torn append, which lies past the frontier, and is cut.  Every complete
    line is parsed, and an unreadable one raises CheckpointError: cutting it
    would lose a prime that the resumed scan never visits again.  So does,
    before any cut, a file that lacks lines up to the frontier: one missing,
    or whose last line kept is not that of the largest prime of [lo, last_completed].
    """
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        raise _missing_results(path, last_completed) from None
    with fh:
        size, past, kept = 0, False, None
        for number, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                break
            try:
                p = json.loads(line)["p"]
                past |= p > last_completed
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckpointError(
                    f"results file {path} line {number} is unreadable: {exc}"
                ) from exc
            if not past:
                size, kept = size + len(line), p
        if kept != _last_prime(lo, last_completed):
            raise _missing_results(path, last_completed)
        fh.truncate(size)
        os.fsync(fh.fileno())


def _check_last_result(path: str, lo: int, hi: int) -> None:
    """Refuse a finished scan's results file unless its last line is that of
    the largest prime of [lo, hi], or it is empty where [lo, hi] holds no
    prime.  Only the file's last 512 bytes are read: a results line is shorter."""
    try:
        with open(path, "rb") as fh:
            fh.seek(max(fh.seek(0, os.SEEK_END) - 512, 0))
            *_, line, torn = (b"\n" + fh.read()).split(b"\n")
        whole = not torn and (json.loads(line)["p"] if line else None) == _last_prime(lo, hi)
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        whole = False
    if not whole:
        raise _missing_results(path, hi)


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

    A fresh scan resumes from nothing done; a scan pointed at an existing
    checkpoint for the same range resumes where it left off, or returns it
    unchanged if it is complete.  Either way its results file, if it names
    one, must exist and end, up to the checkpoint, with the line of the
    largest prime there.  Progress is checkpointed after every block.
    """
    if lo < 2 or hi < lo:
        raise ValueError(f"need 2 <= lo <= hi, got ({lo}, {hi})")
    if hi >= 2**64:
        # primes_in_range works below 2^64, and so does the factoring of
        # each period bound, which reads only p - chi <= p + 1
        raise ValueError(f"hi = {hi} is out of range: need hi < 2^64")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")

    with _scan_lock(checkpoint_path) as lock:
        ck = ScanCheckpoint(lo, hi, lo - 1, (), 0, 0.0)
        if os.path.exists(checkpoint_path):
            ck = load_checkpoint(checkpoint_path)
            if (ck.range_lo, ck.range_hi) != (lo, hi):
                raise CheckpointError(f"checkpoint {checkpoint_path} covers "
                                      f"[{ck.range_lo}, {ck.range_hi}], not [{lo}, {hi}]")
            if results_path and ck.last_completed < hi:
                _trim_results(results_path, lo, ck.last_completed)
            elif results_path:
                _check_last_result(results_path, lo, hi)
        elif results_path:
            # a fresh scan owns the results file from its first line
            open(results_path, "w", encoding="utf-8").close()

        mark = time.perf_counter()
        blocks = _blocks(ck.last_completed + 1, hi, block_size)
        # blocks come back in block order: merged output is worker-count invariant;
        # a finished checkpoint has no block left, and comes back as it was
        with ordered_map(_scan_block, blocks, workers, 2 * workers, lock) as scanned:
            for block_hi, records in scanned:
                if results_path:
                    _append_results(results_path, records)
                previous, mark = mark, time.perf_counter()
                ck = replace(ck, last_completed=block_hi,
                             hits=ck.hits + tuple(r for r in records if r.is_wss),
                             anomaly_count=ck.anomaly_count + sum(not r.criteria_agree for r in records),
                             wall_time_seconds=ck.wall_time_seconds + (mark - previous))
                _write_checkpoint(checkpoint_path, ck)
        return ck

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
else on a pool with two blocks in flight per started worker, whose queued
blocks an early exit, Ctrl-C among them, cancels.  Every scan is a resume:
a fresh one from nothing done, a resumed or finished one from its
checkpoint, once each line of its results file matches _RESULT_LINE and
the last up to there is that of the last prime there.  The blocks'
records, merged in ascending order, fold into one ScanCheckpoint, which
one process, holding a flock on <checkpoint>.lock, writes, so scans are
deterministic and resumable: identical ranges yield byte-identical
checkpoints (modulo wall time) regardless of worker count or interruption
pattern.  chi = (p/5) and every period come from pisano; wss_check takes
its prime's period from _prime_period, past prime_period's memo, since a
scan meets each prime once, so no process keeps anything per prime past
its block.  The scan's own process sieves a window of whole blocks at a
time, at least min(isqrt(hi), 2**20) wide and capped at hi, with every
prime up to min(isqrt(window hi), 2**20) (arith._prime_window), so below
1.1e12 no scanned prime needs a Miller-Rabin proof; each block goes to
_scan_block with its primes, read from the window's flags as the block is
made.  pisano._block_facts gives every prime of a block its facts, the
odd primes of its period bound and, for (p/5) = +1, its root of 5, and
_scan_block passes each prime's facts to that prime's wss_check alone.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import re
import time
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields, replace

from .arith import _prime_window, _sieve_base, is_prime, two_adic_split
from .errors import AnomalyError, CheckpointError
from .fib import fib_pair_mod
from .pisano import (
    _block_facts,
    _index_residue,
    _legendre5,
    _prime_facts,
    _prime_period,
    pisano_fast,
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


def wss_check(p: int, facts: tuple | None = None) -> WssRecord:
    """Evaluate both Wall-Sun-Sun criteria for a prime, given with its facts
    by a block that proved it, or else rejected by _prime_facts if not prime."""
    facts = facts or _prime_facts(p)  # one root of 5 for both criteria
    gamma = _prime_period(p, facts)  # unmemoized, as a scan meets p once
    chi = _legendre5(p)
    index = p - chi
    p2 = p * p
    # two algorithms for the two criteria: for chi = +1 the index residue
    # comes from the eigenvalue route, the period's residue from a ladder
    residue_index = _index_residue(p, facts[1]) if chi == 1 else fib_pair_mod(index, p2)[0]
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
    return _self_square_test(m, pisano_fast(m))


def _self_square_test(m: int, gamma: int) -> SelfSquareRecord:
    """self_square_test(m) from gamma, the fast period of m the caller took."""
    residue = fib_pair_mod(gamma, m * m)[0]
    return SelfSquareRecord(m=m, gamma=gamma, residue_mod_m2=residue, divisible=residue == 0)


def enumerate_self_square(m_max: int) -> list[SelfSquareRecord]:
    """All m in [2, m_max] with m^2 | u_{period(m)}; expected {6, 12}."""
    if m_max < 2:
        raise ValueError(f"enumeration bound must be >= 2, got {m_max}")
    return [r for r in map(self_square_test, range(2, m_max + 1)) if r.divisible]


def cofactor_mod(a: int, g: int, n_l: int) -> int:
    """The quotient u_{a*g} / u_g reduced mod n_l, without any division.

    By Lucas's law u_{a*g} = u_g * U_a(L_g, (-1)^g), which holds for every
    g >= 1, the quotient is the Lucas sequence term U_a(P, Q) with
    P = L_g = 2 u_{g+1} - u_g and Q = (-1)^g, taken by a doubling ladder
    over the bits of a.
    """
    if a < 1:
        raise ValueError(f"multiplier must be >= 1, got {a}")
    if g < 1:
        raise ValueError(f"period index must be >= 1, got {g}")
    u_g, u_next = fib_pair_mod(g, n_l)
    p, q = (2 * u_next - u_g) % n_l, 1 - 2 * (g & 1)
    x, y = 0, 1  # (U_0, U_1)
    for bit in bin(a)[2:]:
        # (U_k, U_{k+1}) -> (U_2k, U_2k+1), U_2k = U_k*(2*U_{k+1} - P*U_k),
        # U_2k+1 = U_{k+1}^2 - Q*U_k^2; a set bit steps once more by the
        # recurrence U_{k+2} = P*U_{k+1} - Q*U_k
        x, y = x * (2 * y - p * x) % n_l, (y * y - q * x * x) % n_l
        if bit == "1":
            x, y = y, (p * y - q * x) % n_l
    return x


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
    """Check the primes of the block (lo, hi, primes), every one proven and given its facts."""
    _, hi, primes = block
    facts = _block_facts(primes)
    return hi, [wss_check(p, facts[p]) for p in primes]


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


# the one grammar of a results line, as _result_line writes it, with p and
# the index below 2**64 (20 digits) and the residue below p**2 (39); group 1
# is p, and ^ and $ pin each match to one whole line of a chunk
_RESULT_LINE = re.compile(
    rb'^\{"p": ([1-9][0-9]{0,19}), "legendre5": (?:-1|0|1), "index": [1-9][0-9]{0,19}, '
    rb'"residue": (?:0|[1-9][0-9]{0,38}), "is_wss": (?:true|false)\}$', re.MULTILINE)
_CHUNK = 1 << 20  # bytes read at a time: far more than a results line


def _append_results(path: str, records: list[WssRecord]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(_result_line(record) + "\n")
        # durable before the checkpoint that moves the frontier past them
        fh.flush()
        os.fsync(fh.fileno())


def _resume_results(path: str, ck: ScanCheckpoint) -> None:
    """Check the results file of checkpoint ck; on a resume, cut the lines past
    its frontier, which the resumed scan writes again.

    One forward pass over chunks cut at newlines matches every complete line
    against _RESULT_LINE.  A line that fails, or a run of more than a chunk
    without a newline, raises CheckpointError naming its line: cutting it
    would lose a prime that the resumed scan never visits again.  The cut
    falls at the first line, in file order, whose p is past the frontier,
    else at a final fragment without a newline, a torn append.  Before any
    cut, a missing file, or one whose last line kept is not that of the
    largest prime of [range_lo, last_completed], is refused.  A resume cuts
    in place and fsyncs, writing no copy; a finished scan refuses a file
    that needs a cut, and writes nothing.
    """
    resume = ck.last_completed < ck.range_hi
    missing = CheckpointError(f"results file {path} is missing the lines up to "
                              f"the checkpoint's frontier {ck.last_completed}")
    try:
        fh = open(path, "r+b" if resume else "rb")
    except FileNotFoundError:
        raise missing from None
    with fh:
        lines = size = 0  # complete lines and their bytes, read so far
        cut = kept = None
        tail = b""
        while data := fh.read(_CHUNK):
            chunk = tail + data
            end = chunk.rfind(b"\n") + 1
            chunk, tail = chunk[:end], chunk[end:]
            ps = _RESULT_LINE.findall(chunk)
            if len(ps) < chunk.count(b"\n") or len(tail) > _CHUNK:
                # an overlong tail's line is the empty piece after the last newline
                pieces = chunk.split(b"\n")
                bad = next(i for i, line in enumerate(pieces) if not _RESULT_LINE.fullmatch(line))
                raise CheckpointError(f"results file {path} line {lines + bad + 1} is unreadable")
            if cut is None:
                for i, p in enumerate(map(int, ps)):
                    if p > ck.last_completed:
                        cut = size + end - len(chunk.split(b"\n", i)[-1])
                        break
                    kept = p
            lines, size = lines + len(ps), size + end
        # the last line kept must be that of the largest prime up to the
        # frontier; below 2**64 a prime gap is under 1,550
        last = next((n for n in range(ck.last_completed, ck.range_lo - 1, -1) if is_prime(n)), None)
        if kept != last or not resume and (cut is not None or tail):
            raise missing
        if resume:
            fh.truncate(size if cut is None else cut)
            os.fsync(fh.fileno())


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
    one, must exist, hold only well-formed lines, and end, up to the
    checkpoint, with the line of the largest prime there; a resume cuts the
    lines past the checkpoint, and a finished scan refuses them.  Progress
    is checkpointed after every block.
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
            if results_path:
                _resume_results(results_path, ck)
        elif results_path:
            # a fresh scan owns the results file from its first line
            open(results_path, "w", encoding="utf-8").close()

        mark = time.perf_counter()
        blocks = _blocks(ck.last_completed + 1, hi, block_size)
        # blocks come back in block order: merged output is worker-count invariant;
        # a finished checkpoint has no block left, and comes back as it was
        with ordered_map(_scan_block, blocks, workers, lock) as scanned:
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

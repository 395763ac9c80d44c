"""Worker pools for fibmod's range scans: wss-scan's blocks and verify's
direct scans.

A pool's workers are forked, whatever the interpreter's default start
method, so that every module binding in place when the pool starts, a
test's patch included, reaches them, and so that a worker holds a copy of
its scan's descriptors that it can close.  A worker ignores SIGINT and
ends itself once its parent is gone.  in_order merges the results in input
order with a bounded number of calls in flight.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor

_FORK = multiprocessing.get_context("fork")
_ORPHAN_POLL_S = 0.5  # how often a pool worker checks that its parent is alive


def worker_pool(workers: int, lock=None) -> ProcessPoolExecutor:
    """A pool of workers forked from this process; lock, the open file of a
    lock that this process holds, is closed in each worker."""
    held = None if lock is None else lock.fileno()
    return ProcessPoolExecutor(
        workers, mp_context=_FORK, initializer=_init_worker, initargs=(os.getpid(), held)
    )


def in_order(pool, fn, items, depth: int):
    """fn of each item in item order, like pool.map, but with at most depth
    calls submitted and not yet merged, so memory does not grow with the
    number of items."""
    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _init_worker(parent: int, lock_fd: int | None) -> None:
    """Pool initializer: tie a worker's life to its parent's.

    It closes the worker's forked copy of a held lock, which a worker
    orphaned by a killed scan would hold, refusing every later run.  And it
    ends the worker once the parent is gone: a worker waiting for its next
    call would otherwise wait forever, reparented to init.  A worker
    ignores SIGINT: Ctrl-C reaches the whole process group, and the parent
    alone handles it, shutting its pool down after the calls in flight.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if lock_fd is not None:
        os.close(lock_fd)
    threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)

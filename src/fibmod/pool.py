"""Ordered maps for wss-scan's blocks and verify's direct scans.

ordered_map is map, here, for one worker; for more it loads the process
pool stdlib, which importing fibmod does not, and forks a pool whatever
the default start method, so that every module binding in place when it
starts, a test's patch included, reaches the workers, and so that a worker
holds a copy of its scan's descriptors that it can close.  A worker ignores
SIGINT and ends itself once its parent is gone.  An early exit, Ctrl-C
among them, cancels the calls still queued.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from itertools import chain, islice

_ORPHAN_POLL_S = 0.5  # how often a pool worker checks that its parent is alive


@contextmanager
def ordered_map(fn, items, workers: int, depth: int, lock=None):
    """fn of each item in item order: map here if workers <= 1, or if there
    is at most one item, else a forked pool of at most one worker per item
    in flight, given the first depth items on entry and one more as each
    result is read, so memory stays bounded; lock, the open file of a lock
    that this process holds, is closed in each worker."""
    items = iter(items)
    # a forked pool starts all its workers at once: no more than there are items
    first = list(islice(items, min(workers, depth))) if workers > 1 else []
    if len(first) <= 1:
        yield map(fn, chain(first, items))
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    held = None if lock is None else lock.fileno()
    with ProcessPoolExecutor(len(first), mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(os.getpid(), held)) as pool:
        pending = deque(pool.submit(fn, item) for item in chain(first, islice(items, depth - len(first))))

        def results():
            while pending:
                done = pending.popleft().result()
                pending.extend(pool.submit(fn, item) for item in islice(items, 1))
                yield done
        try:
            yield results()
        except BaseException:
            # the pool's exit would otherwise run every queued call first
            pool.shutdown(cancel_futures=True)
            raise


def _init_worker(parent: int, lock_fd: int | None) -> None:
    """Pool initializer: tie a worker's life to its parent's.

    It closes the worker's forked copy of a held lock, which a worker
    orphaned by a killed scan would hold, refusing every later run.  And it
    ends the worker once the parent is gone: a worker waiting for its next
    call would otherwise wait forever, reparented to init.  A worker
    ignores SIGINT: Ctrl-C reaches the whole process group, and the parent
    alone handles it, cancelling the calls still queued.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if lock_fd is not None:
        os.close(lock_fd)
    threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)

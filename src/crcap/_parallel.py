"""fork_map: a map over forked worker processes, results in item order."""

from __future__ import annotations

import os
import pickle
import sys
import threading
from typing import Callable, List, Sequence


def fork_map(fn: Callable, items: Sequence, workers: int) -> List:
    """[fn(x) for x in items], spread over up to `workers` processes.

    The caller runs item 0 first, so the memos every item needs (cap
    tables, direct-link grids, budget series) are filled once and reach
    the workers through copy-on-write. The other items are dealt
    round-robin to min(workers, len(items)) shares; each share but the
    last goes to a forked worker, and the caller works through the last,
    which is never the larger. A worker pickles its results, or the
    exception it raised, into its own pipe and leaves by os._exit: it
    writes nothing to stdout or stderr and runs no exit handler. The
    caller re-raises a worker's exception and reaps every worker before
    it returns or raises. The map runs serially where os.fork is missing
    or other Python threads run, since a child would inherit the locks
    they hold.
    """
    items = list(items)
    if (workers < 2 or len(items) < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [fn(x) for x in items]
    results = [fn(items[0])] + [None] * (len(items) - 1)
    k = min(workers, len(items))
    *forked, own = [range(1 + j, len(items), k) for j in range(k)]
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # (pid, read end of its pipe, its share)
    try:
        for share in forked:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _work(fn, items, share, w)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb"), share))
        for i in own:
            results[i] = fn(items[i])
        for pid, pipe, share in children:
            data = pipe.read()
            if not data:
                raise RuntimeError(f"worker {pid} exited without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            for i, res in zip(share, value):
                results[i] = res
        return results
    finally:
        for pid, pipe, _ in children:
            pipe.close()  # a worker still writing then fails and exits
            os.waitpid(pid, 0)


def _work(fn: Callable, items: list, share: range, fd: int) -> None:
    """A worker's whole life: its share's results, or the exception it
    raised, pickled into fd; then os._exit, whatever happens."""
    try:
        try:
            data = pickle.dumps((True, [fn(items[i]) for i in share]))
        except BaseException as exc:  # sent to the caller, which raises it
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)  # some exceptions pickle but do not load
            except Exception:
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)

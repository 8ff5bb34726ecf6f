"""The thread pool that construction and the factor chain share, and the
one rule that cuts their work into groups of middle nodes.  Work goes to
the pool only as pure linear algebra on disjoint slices, so every result
is bit-identical for any worker count.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

#: Where BLAS libraries read their thread count, their own names before
#: OpenMP's, as OpenBLAS and MKL read them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "OMP_NUM_THREADS")

#: Groups of middle nodes a pooled stage cuts its work into per worker.
#: More groups than workers keep fewer of the temporaries alive at once
#: (fio-ref on a 2-core host: recursive_factor_u peaks at 26.6 MB whole,
#: 18.6 MB at 4 groups per worker, at the same speed), and each group still
#: stacks enough nodes that its batched calls outweigh dispatch.
GROUPS_PER_WORKER = 4

#: Stored entries times vectors that one group of an apply carries at least.
#: On a 2-core host a split apply broke even with one group near 8 M
#: (fio-stream at 73 vectors, composition at 18) and won from about 15 M
#: (hankel at 64 vectors, 18.9 M: -16 %).
_GROUP_WORK = 4_000_000


def worker_count() -> int:
    """Threads of a pool: the CPUs this process may run on, shared out
    among BLAS calls that may each use several of them.

    A BLAS at its default spreads one call over every CPU, and pool threads
    calling it at once then queue on its threads while they spin (FIO
    n=16384, leaf 1, r=4 on 2 CPUs: the middle level no faster than
    serial); a BLAS limited to one thread gets one pool thread per CPU.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    limit = next((os.environ[var] for var in BLAS_THREAD_VARS
                  if os.environ.get(var, "").strip().isdigit()), "0")
    blas = int(limit) or cpus
    return max(1, cpus // min(blas, cpus))


def spans(m: int, work=None) -> list:
    """The ``(lo, hi)`` spans of m middle nodes that a stage runs as groups:
    min(m, GROUPS_PER_WORKER x workers) of them, and for an apply of
    ``work`` stored entries x vectors at most one per :data:`_GROUP_WORK`.
    Below two such shares it is one span, found without the worker count."""
    groups = m if work is None else max(1, min(m, work // _GROUP_WORK))
    if groups > 1:
        groups = min(groups, GROUPS_PER_WORKER * worker_count())
    return [(m * i // groups, m * (i + 1) // groups) for i in range(groups)]


def in_pool(*rounds) -> None:
    """Run ``task(*item)`` for every item of every ``(task, items)`` round
    on one thread pool created and joined here, a round's tasks all done
    before the next round's first task starts.

    Items are drawn on the calling thread, in order.  Before an item is
    submitted, the oldest task is waited for if one task per worker is
    already queued or running, so the pool never holds more items than it
    has workers.  Every result is read in order: the first failure is
    raised once the tasks in flight have finished.
    """
    workers = worker_count()
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for task, items in rounds:
            for item in items:
                if len(pending) == workers:
                    pending.popleft().result()
                pending.append(pool.submit(task, *item))
            while pending:
                pending.popleft().result()

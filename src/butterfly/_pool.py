"""The thread pool that construction and the factor chain share, and the
rule that cuts their work into groups of middle nodes.  Work goes to the
pool only as pure linear algebra on disjoint slices, so every result is
bit-identical for any worker count.

The process keeps one pool, made on the first pooled call and kept for
the next: starting an executor cost about 0.5 ms on a 2-core host, more
than a one-vector apply gains by splitting.  It is made again when
:func:`worker_count` reads a new count, and in a child after a fork, whose
copy of the pool has no threads.  A replaced pool, or the second of two
made by calls that found none at once, is only dropped: a call still
running on it keeps it until it returns, and its idle threads then exit.
Idle threads never keep the interpreter from exiting.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache

#: Where BLAS libraries read their thread count, their own names before
#: OpenMP's, as OpenBLAS and MKL read them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "OMP_NUM_THREADS")

#: Groups of middle nodes the refactoring cuts its work into per worker.
#: More groups than workers keep fewer of the temporaries alive at once,
#: and each group still stacks enough nodes that its batched calls outweigh
#: dispatch.  fio-ref on a 2-core host: recursive_factor_u peaks at 35.7 MB
#: whole, 18.5 MB at 4 groups per worker and 16.3 MB at 8, at the same
#: speed, and the whole factorize at 41.9 and 39.4 MB; the QR levels hold
#: more than the SVD did, under which 4 groups gave 41.3 MB.
REFACTOR_GROUPS_PER_WORKER = 8

#: Groups of middle nodes a block apply cuts its work into per worker.
GROUPS_PER_WORKER = 4

#: Stored entries times vectors that one group of a block apply carries at
#: least.  On a 2-core host a split block apply broke even with one group
#: near 8 M (fio-stream at 73 vectors, composition at 18) and won from about
#: 15 M (hankel at 64 vectors, 18.9 M: -16 %), measured on a pool made per
#: call.  On the kept pool an 800 k cutoff moved fio-stream's 64-vector
#: block (7.0 M) from one group to 8 and hankel's from 4 to 8, -11 % and
#: +8 % in-process, so the block cutoff stays.
_GROUP_WORK = 4_000_000

#: Stored entries that one group of a one-vector apply carries at least.
#: A single vector costs far more per stored entry than a block, and each
#: group adds its own small calls at every level, so a one-vector apply
#: splits at a far smaller chain and into at most one group per worker.
#: On a 2-core host with BLAS on one thread the kept pool ran fio-ref's
#: one-vector apply (1.78 M) 42 % faster in 2 groups, 25 % in 4 and no
#: faster in 8, while 2 groups broke even on composition (0.45 M) and lost
#: on hankel (0.30 M: +39 %) and fio-stream (0.11 M: +95 %), in-process.
_VECTOR_WORK = 800_000

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


def spans(m: int, stored=None, vectors: int = 1) -> list:
    """The ``(lo, hi)`` spans of m middle nodes that a stage runs as groups.

    The refactoring (no ``stored``) takes min(m, REFACTOR_GROUPS_PER_WORKER
    x workers) groups.  An apply of ``vectors`` through a chain of
    ``stored`` entries takes min(m, per worker x workers, stored x vectors
    // share) groups: one per worker and a share of :data:`_VECTOR_WORK`
    for a single vector, GROUPS_PER_WORKER and :data:`_GROUP_WORK` for a
    block.  Below two shares it is one span, found without the worker count.
    """
    if stored is None:
        per_worker, groups = REFACTOR_GROUPS_PER_WORKER, m
    else:
        per_worker, share = ((1, _VECTOR_WORK) if vectors == 1
                             else (GROUPS_PER_WORKER, _GROUP_WORK))
        groups = max(1, min(m, stored * vectors // share))
    if groups > 1:
        groups = min(groups, per_worker * worker_count())
    return [(m * i // groups, m * (i + 1) // groups) for i in range(groups)]


@lru_cache(maxsize=1)
def _executor(workers: int) -> ThreadPoolExecutor:
    """The kept pool of ``workers`` threads, made if it has another size."""
    return ThreadPoolExecutor(workers, thread_name_prefix="butterfly")


if hasattr(os, "register_at_fork"):  # POSIX: only a fork copies the pool
    os.register_at_fork(after_in_child=_executor.cache_clear)


def in_pool(*rounds, window=1) -> None:
    """Run ``task(*item)`` for every item of every ``(task, items)`` round
    on the kept thread pool, a round's tasks all done before the next
    round's first task starts.

    Items are drawn on the calling thread, in order.  Before an item is
    submitted, the oldest task of this call is waited for if ``window``
    tasks, or one per worker if that is more, are already queued or
    running, so the call never holds more items in the pool than that.
    Every result is read in order: the first failure is raised once this
    call's tasks in flight have finished, and no later item is drawn.
    Calls from several threads share the pool, each with its own window.
    """
    workers = worker_count()
    pool, pending, window = _executor(workers), deque(), max(window, workers)
    try:
        for task, items in rounds:
            for item in items:
                if len(pending) == window:
                    pending.popleft().result()
                pending.append(pool.submit(task, *item))
            while pending:
                pending.popleft().result()
    finally:
        wait(pending)

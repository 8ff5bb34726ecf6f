"""The kept thread pool: one executor per process and worker count, shared
by concurrent calls, made again in a forked child, and left idle after a
failure."""

import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from butterfly import _pool

from conftest import complex_gaussian, use_workers


@pytest.fixture
def made(monkeypatch):
    """The thread count of each executor the pool makes from here on,
    starting from no kept pool."""
    made = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, workers, **kwargs):
            super().__init__(workers, **kwargs)
            made.append(workers)

    monkeypatch.setattr(_pool, "ThreadPoolExecutor", Counted)
    _pool._executor.cache_clear()
    yield made
    _pool._executor.cache_clear()  # no counted executor outlives the test


def test_pooled_calls_reuse_one_executor(made, monkeypatch):
    use_workers(monkeypatch, 2)
    ran = []
    for call in range(2):
        _pool.in_pool((ran.append, [(call,), (call,)]))
    assert ran == [0, 0, 1, 1] and made == [2]


def test_a_new_worker_count_spares_the_call_on_the_old_pool(made,
                                                            monkeypatch):
    # a call holding its two tasks on the 2-thread pool while another call
    # sizes the pool to 3: that call gets a new executor, the first one
    # runs to its end on the old
    use_workers(monkeypatch, 2)
    started, release, ran, errors = (threading.Semaphore(0), threading.Event(),
                                      [], [])

    def held(i):
        started.release()
        assert release.wait(timeout=30)
        ran.append(i)

    def first_call():
        try:
            _pool.in_pool((held, [(0,), (1,)]), (ran.append, [(2,)]))
        except BaseException as exc:  # reported below, on the test's thread
            errors.append(exc)

    caller = threading.Thread(target=first_call)
    caller.start()
    try:
        for _ in range(2):
            assert started.acquire(timeout=30)
        use_workers(monkeypatch, 3)
        _pool.in_pool((ran.append, [(3,)] * 3))
        assert made == [2, 3] and ran == [3] * 3
    finally:
        release.set()
        caller.join(timeout=30)
    assert not caller.is_alive() and not errors
    assert sorted(ran[3:5]) == [0, 1] and ran[5:] == [2]


def test_a_forked_child_makes_its_own_pool(fio_ref_factors, monkeypatch,
                                           rng):
    # the parent's pool has running threads when it forks; the child's copy
    # of it has none, so a child that reused it would wait forever
    use_workers(monkeypatch, 2)
    f = fio_ref_factors
    g = complex_gaussian(rng, f.n)
    assert len(_pool.spans(f.middle.m, f.nnz_report().total)) == 2
    want = f.apply(g), f.apply_adjoint(g)

    def child():
        got = f.apply(g), f.apply_adjoint(g)
        sys.exit(0 if all(map(np.array_equal, got, want)) else 1)

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=60)
    if process.is_alive():
        process.kill()
        process.join()
    assert process.exitcode == 0


def test_two_threads_applying_at_once_agree_bitwise(fio_ref_factors,
                                                   monkeypatch, rng):
    # one vector in one group per worker, 64 in 8 groups: the two callers'
    # tasks share the pool's two threads
    use_workers(monkeypatch, 2)
    f = fio_ref_factors
    inputs = [complex_gaussian(rng, f.n), complex_gaussian(rng, (f.n, 64))]
    want = [(f.apply(g), f.apply_adjoint(g)) for g in inputs]
    barrier, failures = threading.Barrier(2, timeout=30), []

    def caller():
        barrier.wait()
        for _ in range(5):
            for g, (forward, adjoint) in zip(inputs, want):
                if not (np.array_equal(f.apply(g), forward)
                        and np.array_equal(f.apply_adjoint(g), adjoint)):
                    failures.append(g.shape)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(2)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert not failures


def test_a_failing_round_leaves_no_task_running_or_queued(monkeypatch):
    # 2 workers: items 0 and 1 go in, item 0's result is read, item 2 goes
    # in, and item 1's failure is raised once item 2 has finished
    use_workers(monkeypatch, 2)
    started, finished, later = set(), set(), []

    def task(i):
        started.add(i)
        if i == 1:
            raise ValueError("item 1")
        time.sleep(0.05)
        finished.add(i)

    with pytest.raises(ValueError, match="item 1"):
        _pool.in_pool((task, ((i,) for i in range(8))), (later.append, [(0,)]))
    assert started == {0, 1, 2} and finished == {0, 2}
    time.sleep(0.2)
    assert started == {0, 1, 2} and finished == {0, 2} and not later

"""Acceptance gate: one test per criterion, each at its stated tolerance.

Accuracy criteria (1-3) run on the default quarter-index-leaf trees that
reproduce the reference accuracy regime; the cost criteria (4-5) run on
whole-index-leaf trees where the stated nnz constants hold.  Each test
prints one summary line.
"""

import gc
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from butterfly import (ComposedOperator, DenseOracle, FioKernel,
                       HankelKernel, OperatorReference, RowSampledReference,
                       estimate_eps_a, factorize, factors_equal, load_factors,
                       make_partition, randomized_sampling_svd,
                       randomized_svd, save_factors, truncated_svd)
from butterfly.bench import derive_seed
from butterfly.bessel import bessel_jy_sweep
from butterfly.construct import block_rng

from conftest import complex_gaussian, prescribed_svd_matrix, \
    random_exact_chain

SEEDS = (0, 1, 2, 3, 4)


def _eps(factors, reference, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4, 0)))
    return estimate_eps_a(factors, reference, 256, rng)


def test_criterion_1_fio_accuracy():
    n = 1024
    p = make_partition(n, 0.25)
    ker = FioKernel(n)
    ref = RowSampledReference(ker)
    start = time.perf_counter()
    results = {}
    for r, bound in [(4, 1e-3), (6, 1e-6), (8, 1e-9)]:
        worst = 0.0
        for seed in SEEDS:
            f = factorize(ker, p, r, seed=seed, mode="sampling")
            worst = max(worst, _eps(f, ref, seed))
        results[r] = (worst, bound)
    elapsed = time.perf_counter() - start
    line = " ".join(f"r={r}:{w:.2e}<={b:.0e}" for r, (w, b) in results.items())
    print(f"criterion 1 (FIO accuracy, worst of 5 seeds): {line} [{elapsed:.0f}s]")
    for r, (worst, bound) in results.items():
        assert worst <= bound, f"rank {r}: {worst:.3e} > {bound:.0e}"
    assert elapsed < 120.0


def test_criterion_2_hankel_accuracy():
    n = 1024
    p = make_partition(n, 0.25)
    ker = HankelKernel(n)
    ref = RowSampledReference(ker)
    start = time.perf_counter()
    results = {}
    for r, bound in [(4, 1e-4), (6, 1e-6)]:
        f = factorize(ker, p, r, seed=0, mode="sampling")
        results[r] = (_eps(f, ref, 0), bound)
    elapsed = time.perf_counter() - start
    line = " ".join(f"r={r}:{w:.2e}<={b:.0e}" for r, (w, b) in results.items())
    print(f"criterion 2 (Hankel accuracy): {line} [{elapsed:.0f}s]")
    for r, (worst, bound) in results.items():
        assert worst <= bound, f"rank {r}: {worst:.3e} > {bound:.0e}"
    assert elapsed < 180.0


def test_criterion_3_composition_accuracy():
    n = 1024
    p = make_partition(n, 0.25)
    start = time.perf_counter()
    results = {}
    for r, bound in [(4, 1e-1), (8, 1e-3), (12, 1e-6)]:
        inner = factorize(FioKernel(n), p, r, seed=derive_seed(0, 7),
                          mode="sampling")
        composed = ComposedOperator(inner)
        f = factorize(composed, p, r, seed=0, mode="matvec")
        results[r] = (_eps(f, OperatorReference(composed), 0), bound)
    elapsed = time.perf_counter() - start
    line = " ".join(f"r={r}:{w:.2e}<={b:.0e}" for r, (w, b) in results.items())
    print(f"criterion 3 (composition vs fast chain): {line} [{elapsed:.0f}s]")
    for r, (worst, bound) in results.items():
        assert worst <= bound, f"rank {r}: {worst:.3e} > {bound:.0e}"
    assert elapsed < 300.0


def test_criterion_4_construction_scaling():
    r = 4
    factorize(FioKernel(256), make_partition(256, 1), r, seed=0)  # warm up

    def timed(n):
        ker, p = FioKernel(n), make_partition(n, 1)
        gc.collect()
        start = time.perf_counter()
        factorize(ker, p, r, seed=0, mode="sampling")
        return time.perf_counter() - start

    # A shared host runs slow or fast for phases of seconds.  The short
    # n=1024 run is timed between every larger run (best of five) and
    # n=4096 on both sides of the single n=16384 run (best of three): a
    # phase then reaches both sizes of each ratio, and the minimum drops
    # the slow runs.
    times = {}
    for n in (1024, 4096, 1024, 4096, 1024, 16384, 1024, 4096, 1024):
        times[n] = min(times.get(n, np.inf), timed(n))
    r1 = times[4096] / times[1024]
    r2 = times[16384] / times[4096]
    print(f"criterion 4 (construction scaling): t={times} "
          f"ratios {r1:.1f}, {r2:.1f} in [4, 16]")
    assert 4.0 <= r1 <= 16.0
    assert 4.0 <= r2 <= 16.0


class CountingOracle:
    """Entry oracle that counts the entries it evaluates."""

    def __init__(self, inner):
        self.inner = inner
        self.shape = inner.shape
        self.entries = 0

    def block(self, rows, cols):
        self.entries += np.size(rows) * np.size(cols)
        return self.inner.block(rows, cols)


def test_sampling_cost_scales_as_n15_r():
    # The machine-independent twin of criterion 4 for the randomized
    # sampling engine: entries it evaluates on every middle block of FIO
    # at leaf 1, r=4, against the O(n^1.5 r) cost of the paper.  These
    # blocks sit below the dense crossover, so factorize reads them whole
    # (n^2 entries); the engine is called directly, with the generators
    # factorize would give it.  With one skeleton sweep the constants are
    # 15.4 (n=256) and 15.5 (n=1024); entry counts are deterministic, so a
    # second sweep (30.0 at n=1024) fails the per-size bound, and a sampler
    # that grew as n^2 would double the constant from one size to the next.
    r = 4
    constants = {}
    for n in (256, 1024):
        p = make_partition(n, 1)
        m, side = p.mid_nodes, p.mid_side
        oracle = CountingOracle(FioKernel(n))
        for i in range(m):
            for j in range(m):
                def block(rows, cols, i=i, j=j):
                    return oracle.block(rows + i * side, cols + j * side)
                randomized_sampling_svd(block, side, side, r,
                                        block_rng(0, 0, i, j))
        constants[n] = oracle.entries / (n ** 1.5 * r)
    growth = constants[1024] / constants[256]
    print(f"sampling cost: entries / (n^1.5 r) = {constants}, "
          f"growth {growth:.3f} in [0.8, 1.25]")
    assert all(c <= 20.0 for c in constants.values())
    assert 0.8 <= growth <= 1.25


def test_criterion_5_apply_cost():
    r = 4
    ratios = []
    for n in (256, 1024, 4096):
        f = factorize(FioKernel(n), make_partition(n, 1), r, seed=0)
        ratios.append(f.nnz_report().total / (n * np.log2(n) * r * r))
    assert all(v <= 4.0 for v in ratios)
    for prev, nxt in zip(ratios, ratios[1:]):
        assert nxt <= 1.1 * prev  # non-increasing within 10 percent

    n = 65536
    ker = FioKernel(n)
    f = factorize(ker, make_partition(n, 16), r, seed=0, mode="sampling")
    g = complex_gaussian(np.random.default_rng(0), n)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        f.apply(g)
        times.append(time.perf_counter() - start)
    t_apply = float(np.median(times))
    t_dense = RowSampledReference(ker).matvec_time(g)
    speedup = t_dense / t_apply
    print(f"criterion 5 (apply cost): nnz ratios {[f'{v:.3f}' for v in ratios]}"
          f" <= 4; speedup at 65536 = {speedup:.0f}x (apply {t_apply:.4f}s,"
          f" dense {t_dense:.1f}s)")
    assert speedup >= 20.0


def test_criterion_6_exact_rank_oracle_equivalence():
    n, r = 256, 4
    p = make_partition(n, 1)
    rng = np.random.default_rng(60)
    chain = random_exact_chain(p, r, rng)
    k = chain.dense()
    f = factorize(DenseOracle(k), p, r, seed=0, mode="sampling")
    worst = 0.0
    for _ in range(10):
        g = complex_gaussian(rng, n)
        want = k @ g
        worst = max(worst, np.linalg.norm(f.apply(g) - want)
                    / np.linalg.norm(want))
    print(f"criterion 6 (exact-rank reproduction): worst {worst:.2e} <= 1e-10")
    assert worst <= 1e-10


def test_criterion_7_invariant_suite(tmp_path):
    n, r = 512, 3
    p = make_partition(n, 0.25)
    ker = FioKernel(n)
    f = factorize(ker, p, r, seed=9, mode="sampling")

    rep = f.nnz_report()
    assert rep.middle == 2 ** p.levels * r
    leaf_rank = min(r, max(1, n >> p.levels))
    assert rep.u_outer == n * leaf_rank and rep.v_outer == n * leaf_rank

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        x = complex_gaussian(rng, n)
        y = complex_gaussian(rng, n)
        lhs = np.vdot(y, f.apply(x))
        rhs = np.vdot(f.apply_adjoint(y), x)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst <= 1e-12

    first = tmp_path / "a.bfac"
    second = tmp_path / "b.bfac"
    save_factors(f, first)
    save_factors(load_factors(first), second)
    assert first.read_bytes() == second.read_bytes()

    again = factorize(ker, p, r, seed=9, mode="sampling")
    stream = factorize(ker, p, r, seed=9, mode="streaming")
    assert factors_equal(f, again) and factors_equal(f, stream)

    sub = tmp_path / "sub.bfac"
    env = dict(os.environ,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    code = subprocess.run(
        [sys.executable, "-m", "butterfly", "factor", "--kernel", "fio",
         "--n", str(n), "--rank", str(r), "--seed", "9", "--leaf", "0.25",
         "--mode", "sampling", "--out", str(sub)],
        env=env, capture_output=True).returncode
    assert code == 0
    assert sub.read_bytes() == first.read_bytes()
    print(f"criterion 7 (invariants): nnz ids ok, adjoint {worst:.1e} <= 1e-12,"
          " serialization and cross-thread/streaming determinism bit-exact")


def test_criterion_8_engine_and_special_function_checks():
    rng = np.random.default_rng(80)
    sigmas = 10.0 ** -np.arange(16)
    z = prescribed_svd_matrix(rng, 16, 16, sigmas)
    r = 4
    opt = np.linalg.norm(z - truncated_svd(z, r).matrix(), 2)
    worst = 0.0
    for seed in range(10):
        apply_op = lambda x, adj: (z.conj().T @ x) if adj else z @ x
        a = randomized_svd(apply_op, 16, 16, r,
                           rng=np.random.default_rng(seed))
        b = randomized_sampling_svd(DenseOracle(z).block, 16, 16, r,
                                    rng=np.random.default_rng(seed))
        worst = max(worst,
                    np.linalg.norm(z - a.matrix(), 2) / opt,
                    np.linalg.norm(z - b.matrix(), 2) / opt)
    assert worst <= 10.0

    n = 1024
    sample = np.random.default_rng(81)
    xs = np.unique(n + (2 * np.pi / 3) * sample.integers(0, n, size=100))
    js, ys = bessel_jy_sweep(xs, n - 1)
    orders = sample.integers(0, n - 1, size=100)
    wronskian_worst = 0.0
    for k, m in zip(sample.integers(0, xs.size, size=100), orders):
        w = js[k, m + 1] * ys[k, m] - js[k, m] * ys[k, m + 1]
        want = 2.0 / (np.pi * xs[k])
        wronskian_worst = max(wronskian_worst, abs(w - want) / want)
    assert wronskian_worst <= 1e-10
    print(f"criterion 8 (engines/special functions): engines within "
          f"{worst:.1f}x of optimal (<=10), Wronskian {wronskian_worst:.1e}")

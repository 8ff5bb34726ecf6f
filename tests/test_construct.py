import gc
import hashlib
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

from butterfly import (DenseOracle, FioKernel, HankelKernel, OracleError,
                       dense_matrix, factorize, factors_equal, make_partition,
                       middle_factorization_matvec,
                       middle_factorization_sampling, recursive_factor_u,
                       recursive_factor_v, truncated_svd)
from butterfly import _pool, construct, lowrank
from butterfly.bench import (RowSampledReference, build_operator,
                             estimate_eps_a, eps_rng)
from butterfly.factors import TransferFactor, chain_geometry
from butterfly.lowrank import at_dense_limit, floored_inverse, sketched_svd

from conftest import complex_gaussian, random_exact_chain, use_workers


def middle_triple_dense(u_h, middle, v_h):
    return u_h.dense() @ middle.dense() @ v_h.dense().conj().T


def test_middle_sampling_zero_kernel():
    p = make_partition(64, 1)
    u_h, middle, v_h = middle_factorization_sampling(
        DenseOracle(np.zeros((64, 64))), p, 2, seed=0)
    assert np.array_equal(middle.weights, np.zeros_like(middle.weights))
    assert np.all(np.isfinite(u_h.blocks)) and np.all(np.isfinite(v_h.blocks))
    assert np.array_equal(u_h.blocks, np.zeros_like(u_h.blocks))
    assert np.array_equal(v_h.blocks, np.zeros_like(v_h.blocks))


def test_middle_sampling_fio_accuracy():
    n = 64
    p = make_partition(n, 0.25)
    k = dense_matrix(FioKernel(n), n)
    u_h, middle, v_h = middle_factorization_sampling(FioKernel(n), p, 4, seed=1)
    err = np.linalg.norm(k - middle_triple_dense(u_h, middle, v_h))
    assert err / np.linalg.norm(k) <= 1e-3


def test_middle_structure_matches_block_permutation():
    # eight nodes per side, scalar weights on the transposed block slots
    p = make_partition(64, 1)
    assert p.mid_nodes == 8
    u_h, middle, v_h = middle_factorization_sampling(FioKernel(64), p, 1, seed=0)
    assert middle.weights.shape == (8, 8, 1)
    dense = middle.dense()
    m, r = 8, 1
    expected = np.zeros_like(dense)
    for i in range(m):
        for j in range(m):
            expected[i * m * r + j * r, j * m * r + i * r] = middle.weights[i, j, 0]
    assert np.array_equal(dense, expected)


def test_middle_identity_blockwise():
    n = 64
    p = make_partition(n, 1)
    ker = FioKernel(n)
    u_h, middle, v_h = middle_factorization_sampling(ker, p, 3, seed=2)
    m, side, r = p.mid_nodes, p.mid_side, 3
    u = u_h.blocks.reshape(m, side, m, r)
    v = v_h.blocks.reshape(m, side, m, r)
    triple = middle_triple_dense(u_h, middle, v_h)
    for i in range(m):
        for j in range(m):
            block = u[i, :, j, :] @ np.diag(middle.weights[i, j]) \
                @ v[j, :, i, :].conj().T
            got = triple[i * side:(i + 1) * side, j * side:(j + 1) * side]
            assert np.linalg.norm(got - block) <= 1e-13 * max(
                np.linalg.norm(block), 1.0)


def test_middle_matvec_identity_operator(rng):
    # The identity only satisfies the block low-rank condition at full
    # middle-block rank: its diagonal middle blocks are identity matrices of
    # side n/m, so the reconstruction claim holds for r = n/m (the blocks
    # are then read whole from K* of identity columns, r + 5 being over
    # half their side).
    n = 64
    p = make_partition(n, 1)
    r = p.mid_side
    op = DenseOracle(np.eye(n, dtype=complex))
    u_h, middle, v_h = middle_factorization_matvec(op, p, r, seed=3)
    approx = middle_triple_dense(u_h, middle, v_h)
    for _ in range(16):
        g = complex_gaussian(rng, n)
        assert np.linalg.norm(approx @ g - g) <= 1e-10 * np.linalg.norm(g)


def test_middle_matvec_fio_accuracy():
    n = 64
    p = make_partition(n, 0.25)
    k = dense_matrix(FioKernel(n), n)
    u_h, middle, v_h = middle_factorization_matvec(DenseOracle(k), p, 4, seed=1)
    err = np.linalg.norm(k - middle_triple_dense(u_h, middle, v_h))
    assert err / np.linalg.norm(k) <= 1e-3


def test_probe_products_match_the_dense_block_diagonal_probe(rng):
    # 16 blocks of width 13 (r=8): 208 probe columns, applied as slices of
    # 128 and 80 that cut block 9 in two
    n, m, side, width = 256, 16, 16, 13
    k = complex_gaussian(rng, (n, n))
    probe = complex_gaussian(rng, (m, side, width))
    dense = np.zeros((n, m * width), dtype=complex)
    for j in range(m):
        dense[j * side:(j + 1) * side, j * width:(j + 1) * width] = probe[j]
    oracle = LoggingOperatorOracle(DenseOracle(k))
    got = construct._probe_products(oracle.apply, probe)
    got = got.reshape(m, side, m, width)
    want = (k @ dense).reshape(m, side, m, width)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    applied = [np.frombuffer(call[2], complex).reshape(n, -1)
               for call in oracle.log]
    assert [a.shape[1] for a in applied] == [128, 80]
    assert np.array_equal(np.hstack(applied), dense)


def test_recursion_zero_input():
    p = make_partition(64, 1)
    m, side, r = p.mid_nodes, p.mid_side, 2
    u_h = TransferFactor(p.half,
                         np.zeros((m, 1, 1, side, m * r), dtype=complex))
    outer, chain = recursive_factor_u(u_h, p, r)
    assert np.array_equal(outer.blocks, np.zeros_like(outer.blocks))
    # scaling sits in the left factor, so every transfer block has
    # orthonormal rows
    for tf in chain:
        k_out, two_k = tf.blocks.shape[-2:]
        blocks = tf.blocks.reshape(-1, k_out, two_k)
        grams = blocks @ blocks.conj().swapaxes(-1, -2)
        assert np.allclose(grams, np.eye(k_out), atol=1e-12)
    recon = outer.dense()
    for tf in reversed(chain):
        recon = recon @ tf.dense()
    assert np.allclose(recon, 0.0)


def _chain_reconstruction_error(u_h, outer, chain):
    recon = outer.dense()
    for tf in reversed(chain):
        recon = recon @ tf.dense()
    dense = u_h.dense()
    return np.linalg.norm(dense - recon) / np.linalg.norm(dense)


def test_recursion_fio_chain_error():
    n = 64
    p = make_partition(n, 0.25)
    u_h, _, v_h = middle_factorization_sampling(FioKernel(n), p, 4, seed=4)
    outer, chain = recursive_factor_u(u_h, p, 4)
    assert _chain_reconstruction_error(u_h, outer, chain) <= 1e-2
    outer_v, chain_v = recursive_factor_v(v_h, p, 4)
    assert _chain_reconstruction_error(v_h, outer_v, chain_v) <= 1e-2


def test_recursion_exact_rank_input(rng):
    p = make_partition(128, 1)
    r = 3
    f = random_exact_chain(p, r, rng)
    m, side = p.mid_nodes, p.mid_side
    # rebuild the middle-level left factor from the chain, then re-factor it
    dense = f.u_outer.dense()
    for tf in reversed(f.g_chain):
        dense = dense @ tf.dense()
    blocks = np.stack([dense[i * side:(i + 1) * side,
                             i * m * r:(i + 1) * m * r] for i in range(m)])
    u_h = TransferFactor(p.half, blocks.reshape(m, 1, 1, side, m * r))
    outer, chain = recursive_factor_u(u_h, p, r)
    assert _chain_reconstruction_error(u_h, outer, chain) <= 1e-10


def _svd_refactor(cur, levels, first):
    """Reference refactoring: the leading k_out singular directions of
    every block at every level, also where nothing is dropped."""
    *transfer, leaf = levels
    for out in transfer:
        _, pairs, t, k_out, two_k = out.shape
        nb, rows = cur.shape[:2]
        stacked = cur.reshape(nb, t, rows // t, pairs, two_k).swapaxes(2, 3)
        uu, ss, vh = np.linalg.svd(stacked, full_matrices=False)
        out[first:first + nb] = vh[..., :k_out, :].swapaxes(1, 2)
        new_u = uu[..., :k_out] * ss[..., None, :k_out]
        cur = new_u.swapaxes(2, 3).reshape(nb * t, rows // t, pairs, k_out)
        first *= t
    nb, rows, _, k = cur.shape
    leaf[first:first + nb] = cur.reshape(nb, 1, 1, rows, k)


def _worst_gram_error(chain):
    """Largest deviation of B B* from the identity over every block B."""
    worst = 0.0
    for tf in chain:
        k_out, two_k = tf.blocks.shape[-2:]
        blocks = tf.blocks.reshape(-1, k_out, two_k)
        grams = blocks @ blocks.conj().swapaxes(-1, -2)
        worst = max(worst, np.abs(grams - np.eye(k_out)).max())
    return worst


def test_refactoring_that_drops_nothing_is_exact():
    # FIO n=256, leaf 0.25, r=8: 8-row middle blocks, so no level has more
    # rows per output node than r, and every level takes the QR route
    n, r = 256, 8
    p = make_partition(n, 0.25)
    assert p.mid_side // 2 <= r
    u_h, _, v_h = middle_factorization_sampling(FioKernel(n), p, r, seed=0)
    for middle, refactor in ((u_h, recursive_factor_u),
                             (v_h, recursive_factor_v)):
        outer, chain = refactor(middle, p, r)
        assert _chain_reconstruction_error(middle, outer, chain) <= 1e-13
        assert _worst_gram_error(chain) <= 1e-12


def test_exact_levels_match_the_svd_at_every_level(monkeypatch):
    # FIO n=512, leaf 1, r=6: 16 and 8 rows per output node truncate at
    # levels 4 and 5, 4 and 2 rows keep everything at levels 6 and 7
    n, r = 512, 6
    p = make_partition(n, 1)
    assert p.mid_side == 32 and len(chain_geometry(p, r)) == 5
    f = factorize(FioKernel(n), p, r, seed=0)
    monkeypatch.setattr(construct, "_refactor", _svd_refactor)
    reference = factorize(FioKernel(n), p, r, seed=0)
    want = reference.dense()
    assert np.linalg.norm(f.dense() - want) <= 1e-12 * np.linalg.norm(want)
    assert _worst_gram_error(f.g_chain + f.h_chain) <= 1e-12


def test_recursion_nnz_closed_form():
    n, r = 64, 2
    p = make_partition(n, 0.25)
    u_h, _, _ = middle_factorization_sampling(FioKernel(n), p, r, seed=0)
    _, chain = recursive_factor_u(u_h, p, r)
    k_in = r
    for tf in chain:
        pairs = 2 ** (p.levels - tf.level - 1)
        nodes = min(2 ** tf.level, n)
        t = 2 if 2 ** tf.level < n else 1
        k_out = min(r, max(1, n >> (tf.level + 1)))
        assert tf.nnz == nodes * t * pairs * k_out * 2 * k_in
        k_in = k_out


def test_adjoint_symmetry_on_hermitian_kernel(rng):
    # eight-by-eight block Hermitian example: factor K and K*; the adjoint
    # of one factorization applies the other within the joint error budget
    p = make_partition(64, 1)
    r = 4
    base = random_exact_chain(p, 2, rng)
    k = base.dense()
    k = k + k.conj().T  # block ranks at most 4
    fk = factorize(DenseOracle(k), p, r, seed=6)
    fkstar = factorize(DenseOracle(k.conj().T), p, r, seed=7)
    g = complex_gaussian(rng, 64)
    want = k.conj().T @ g
    assert np.linalg.norm(fk.apply_adjoint(g) - want) <= 1e-9 * np.linalg.norm(want)
    assert np.linalg.norm(fkstar.apply(g) - want) <= 1e-9 * np.linalg.norm(want)


def test_factorize_dense_error_small_fio():
    n = 256
    p = make_partition(n, 0.25)
    k = dense_matrix(FioKernel(n), n)
    f = factorize(FioKernel(n), p, 4, seed=3)
    assert np.linalg.norm(k - f.dense()) / np.linalg.norm(k) <= 1e-3


# (kernel, n, target_leaf, r) above the dense crossover (side 64 > 32 r):
# the randomized sampling engine builds these middle blocks
ENGINE_CASES = [(FioKernel, 1024, 4, 1)]
# ... and these, whose blocks cost whole rows (whole_rows), are read as whole
# block rows and columns there instead
WHOLE_LINE_CASES = [(HankelKernel, 1024, 4, 1)]
# Middle sides 8, 4, 16 and 16 take dense lines compressed by a truncated
# SVD (r + 5 above half the side) and FIO side 32 at r=4 the sketched SVD.
# Streaming reads FIO's dense lines in runs of blocks sized from the factor
# bytes (16, the whole line, at n=128; 9 at n=1024) and Hankel's, whose
# blocks cost whole rows, as whole block rows and columns.
STREAMING_CASES = [(FioKernel, 128, 0.25, 4), (HankelKernel, 64, 0.25, 3),
                   (FioKernel, 256, 1, 4), (HankelKernel, 256, 1, 4),
                   (FioKernel, 1024, 1, 4), *ENGINE_CASES, *WHOLE_LINE_CASES]


@pytest.mark.parametrize("kernel, n, leaf, r", STREAMING_CASES)
def test_streaming_matches_sampling_bitwise(kernel, n, leaf, r):
    p = make_partition(n, leaf)
    route = ("dense limit" if at_dense_limit(p.mid_side, p.mid_side, r)
             else "whole lines" if getattr(kernel(n), "whole_rows", False)
             else "engine")
    case = (kernel, n, leaf, r)
    assert route == ("engine" if case in ENGINE_CASES else "whole lines"
                     if case in WHOLE_LINE_CASES else "dense limit")
    a = factorize(kernel(n), p, r, seed=9, mode="sampling")
    b = factorize(kernel(n), p, r, seed=9, mode="streaming")
    assert factors_equal(a, b)


@pytest.mark.parametrize("share, step", [(32, 3), (20, 5), (17, 6)])
def test_ragged_streaming_runs_match_sampling_bitwise(monkeypatch, share,
                                                      step):
    # fio-stream's geometry (16 blocks of 32 x 32 a line) in runs that do
    # not divide the line: each block row (U side) and column (V side) ends
    # in a short run
    n, r = 512, 6
    p = make_partition(n, 1)
    monkeypatch.setattr(construct, "STREAM_RUN_SHARE", share)
    runs = []

    class Runs(CountingOracle):
        def block(self, rows, cols):
            runs.append(np.size(rows) * np.size(cols) // 32 ** 2)
            return super().block(rows, cols)

    a = factorize(FioKernel(n), p, r, seed=3, mode="sampling")
    b = factorize(Runs(FioKernel(n)), p, r, seed=3, mode="streaming")
    assert runs == ([step] * (16 // step) + [16 % step]) * 32
    assert factors_equal(a, b)


@pytest.mark.parametrize("kernel, n, r", [(FioKernel, 128, 4),
                                          (HankelKernel, 64, 3)])
def test_batched_dense_middle_matches_per_block_reference(kernel, n, r):
    # at the dense limit a block row is one stacked SVD; every slice must
    # equal the per-block truncated SVD and floored inverse bit for bit
    p = make_partition(n, 0.25)
    m, side = p.mid_nodes, p.mid_side
    assert at_dense_limit(side, side, r)
    ker = kernel(n)
    u = np.zeros((m, side, m, r), dtype=complex)
    v = np.zeros((m, side, m, r), dtype=complex)
    w = np.zeros((m, m, r))
    for i in range(m):
        for j in range(m):
            rows, cols = (np.arange(x * side, (x + 1) * side) for x in (i, j))
            apx = truncated_svd(ker.block(rows, cols), r)
            u[i, :, j, :] = apx.u0 * apx.sigma0
            v[j, :, i, :] = apx.v0 * apx.sigma0
            w[i, j] = floored_inverse(apx.sigma0)
    u_h, middle, v_h = middle_factorization_sampling(kernel(n), p, r, seed=5)
    assert np.array_equal(u_h.blocks, u.reshape(m, 1, 1, side, m * r))
    assert np.array_equal(v_h.blocks, v.reshape(m, 1, 1, side, m * r))
    assert np.array_equal(middle.weights, w)
    assert np.count_nonzero(middle.weights == 0) == np.count_nonzero(w == 0)


def test_sketched_dense_middle_matches_per_block_reference():
    # sketched lines (side 32, r + 5 = 11 at most half a side) share one
    # Gaussian drawn for the factorization: every slice of a line's stacked
    # call must equal the sketch of that block alone with it, bit for bit
    n, r, seed = 512, 6, 5
    p = make_partition(n, 1)
    m, side = p.mid_nodes, p.mid_side
    omega = construct._sketch(p, r, seed)
    assert omega.shape == (side, r + lowrank.PROBE_OVERSAMPLING)
    ker = FioKernel(n)
    u = np.zeros((m, side, m, r), dtype=complex)
    v = np.zeros((m, side, m, r), dtype=complex)
    w = np.zeros((m, m, r))
    for i in range(m):
        for j in range(m):
            rows, cols = (np.arange(x * side, (x + 1) * side) for x in (i, j))
            apx = sketched_svd(ker.block(rows, cols), r, omega)
            u[i, :, j, :] = apx.u0 * apx.sigma0
            v[j, :, i, :] = apx.v0 * apx.sigma0
            w[i, j] = floored_inverse(apx.sigma0)
    u_h, middle, v_h = middle_factorization_sampling(ker, p, r, seed=seed)
    assert np.array_equal(u_h.blocks, u.reshape(m, 1, 1, side, m * r))
    assert np.array_equal(v_h.blocks, v.reshape(m, 1, 1, side, m * r))
    assert np.array_equal(middle.weights, w)


@pytest.mark.parametrize("mode", ["sampling", "streaming"])
def test_one_sketch_is_drawn_per_factorization(monkeypatch, mode):
    # streaming sketches both sides' lines with the same draw
    draws = []

    def counted(rng, shape):
        draws.append(shape)
        return lowrank.complex_normal(rng, shape)

    monkeypatch.setattr(construct, "complex_normal", counted)
    factorize(FioKernel(512), make_partition(512, 1), 6, seed=0, mode=mode)
    assert draws == [(32, 11)]


@pytest.mark.parametrize("n, r", [(512, 6), (1024, 4)])
def test_a_shared_sketch_is_as_accurate_as_truncation(monkeypatch, n, r):
    # one Gaussian for every block costs no accuracy against truncating
    # each block whole: eps_a read 1.0000x at both geometries (and n=4096)
    p, ker = make_partition(n, 1), FioKernel(n)
    assert not construct._narrow(p.mid_side, r)

    def eps_a():
        f = factorize(ker, p, r, seed=0)
        return estimate_eps_a(f, RowSampledReference(ker), 256, eps_rng(0, 0))

    sketched = eps_a()
    monkeypatch.setattr(construct, "_narrow", lambda side, r: True)
    assert sketched <= 1.01 * eps_a()


class CountingOracle:
    def __init__(self, inner):
        self.inner, self.shape, self.calls = inner, inner.shape, 0
        self.entries, self.applied = 0, []
        self.whole_rows = getattr(inner, "whole_rows", False)

    def block(self, rows, cols):
        self.calls += 1
        self.entries += np.size(rows) * np.size(cols)
        return self.inner.block(rows, cols)

    def apply(self, x):
        self.calls += 1
        self.applied.append(("apply", x.shape[1]))
        return self.inner.apply(x)

    def apply_adjoint(self, x):
        self.calls += 1
        self.applied.append(("apply_adjoint", x.shape[1]))
        return self.inner.apply_adjoint(x)


@pytest.mark.parametrize("n, leaf, r, applied", [
    # side 16: r + 5 = 13 is over half a side, so block rows of K are read
    # whole from K* of identity columns, 8 block rows (128 columns) a call
    (512, 0.5, 8, [("apply_adjoint", 128)] * 4),
    # side 64: r + 5 = 9 is at most half a side, so 16 blocks take 144
    # Gaussian probe columns a side, in calls of 128 and 16
    (1024, 4, 4, [("apply", 128), ("apply", 16), ("apply_adjoint", 128),
                  ("apply_adjoint", 16)])])
def test_matvec_reads_narrow_blocks_whole_and_probes_wider_ones(n, leaf, r,
                                                               applied):
    p, op, _, mode = build_operator("composition", n, r, leaf, "matvec", 0)
    oracle = CountingOracle(op)
    factorize(oracle, p, r, seed=0, mode=mode)
    assert oracle.applied == applied and oracle.calls == len(applied)


@pytest.mark.parametrize("r", [4, 8])
def test_probes_recover_an_exact_rank_operator(rng, r):
    # side 64 keeps r + 5 at most half a side at r=4 and r=8, so the middle
    # level comes from probes alone; blocks of exact rank r come back to
    # rounding (relative Frobenius error 4.9e-15 and 7.1e-15)
    n = 1024
    p = make_partition(n, 4)
    assert p.mid_side == 64 and not construct._narrow(64, r)
    chain = random_exact_chain(p, r, rng)

    class Operator:  # K through the chain, with no access to its entries
        shape = (n, n)

        def apply(self, x):
            return chain.apply(x)

        def apply_adjoint(self, x):
            return chain.apply_adjoint(x)

    f = factorize(Operator(), p, r, seed=0, mode="matvec")
    k = chain.dense()
    assert np.linalg.norm(f.dense() - k) <= 1e-10 * np.linalg.norm(k)


@pytest.mark.parametrize("kernel, n, leaf, r, mode", [
    ("fio", 512, 1, 6, "sampling"),  # dense lines
    ("fio", 1024, 4, 1, "sampling"),  # the sampling engine
    ("fio", 512, 1, 6, "streaming"),  # runs of blocks
    ("composition", 512, 0.5, 8, "matvec"),  # identity slices
    ("composition", 1024, 4, 4, "matvec")])  # probes
def test_every_oracle_call_runs_inside_the_checked_call(monkeypatch, kernel,
                                                        n, leaf, r, mode):
    inside, seen = [], []
    checked = construct._checked

    def flagged(*args, **kwargs):
        inside.append(True)
        try:
            return checked(*args, **kwargs)
        finally:
            inside.pop()

    class Watched(CountingOracle):
        def block(self, rows, cols):
            seen.append(bool(inside))
            return super().block(rows, cols)

        def apply(self, x):
            seen.append(bool(inside))
            return super().apply(x)

        def apply_adjoint(self, x):
            seen.append(bool(inside))
            return super().apply_adjoint(x)

    monkeypatch.setattr(construct, "_checked", flagged)
    p, oracle, _, mode = build_operator(kernel, n, r, leaf, mode, 0)
    oracle = Watched(oracle)
    factorize(oracle, p, r, seed=0, mode=mode)
    assert all(seen) and len(seen) == oracle.calls > 0


@pytest.mark.parametrize("kernel, n, leaf, mode, calls", [
    (FioKernel, 128, 0.25, "sampling", 1),
    (FioKernel, 128, 0.25, "streaming", 32),
    (HankelKernel, 256, 1, "sampling", 2),
    (HankelKernel, 256, 1, "streaming", 32)])
def test_dense_limit_one_oracle_call_per_block_line(kernel, n, leaf, mode,
                                                    calls):
    # 16 middle nodes at r=4: sampling reads whole block rows, 128 rows of K
    # a call (all 16 of FIO's 8-row block rows, 8 of Hankel's 16-row ones),
    # instead of one call per block.  Streaming's runs of FIO's 8 x 8 blocks
    # may hold 18 blocks, so it reads each line whole, on each side (16 x 2
    # calls); Hankel's blocks cost whole rows, so it reads whole rows and
    # columns
    p = make_partition(n, leaf)
    assert p.mid_nodes == 16
    oracle = CountingOracle(kernel(n))
    factorize(oracle, p, 4, seed=0, mode=mode)
    assert oracle.calls == calls


@pytest.mark.parametrize("mode", ["sampling", "streaming"])
def test_whole_rows_oracle_reads_whole_lines_above_the_crossover(mode):
    # Hankel side 64 at r=1 is above the crossover, where an oracle without
    # whole_rows goes through the sampling engine; sampling reads its block
    # rows two a call (128 rows of K)
    p = make_partition(1024, 4)
    assert p.mid_nodes == 16 and not at_dense_limit(64, 64, 1)
    oracle = CountingOracle(HankelKernel(1024))
    factorize(oracle, p, 1, seed=0, mode=mode)
    assert oracle.calls == {"sampling": 8, "streaming": 32}[mode]


@pytest.mark.parametrize("mode, calls, reads", [("sampling", 4, 1),
                                                ("streaming", 128, 2)])
def test_dense_lines_evaluate_each_entry_once_per_line(mode, calls, reads):
    # FIO n=512, leaf 1, r=6: 32 x 32 blocks below the crossover.  Sampling
    # reads whole block rows, 4 a call; streaming reads each in runs of 4
    # blocks, once for its block row and once for its block column
    n = 512
    p = make_partition(n, 1)
    assert (p.mid_nodes, p.mid_side) == (16, 32) and at_dense_limit(32, 32, 6)
    oracle = CountingOracle(FioKernel(n))
    factorize(oracle, p, 6, seed=0, mode=mode)
    assert (oracle.calls, oracle.entries) == (calls, reads * n * n)


class LoggingOracle(CountingOracle):
    """Logs the rows and columns of every ``block`` call, in order."""

    def __init__(self, inner):
        super().__init__(inner)
        self.log = []

    def block(self, rows, cols):
        self.log.append(tuple(np.asarray(x, np.int64).tobytes()
                              for x in (rows, cols)))
        return super().block(rows, cols)


def _traffic_digest(log):
    h = hashlib.sha256()
    for rows, cols in log:
        h.update(np.int64([len(rows), len(cols)]).tobytes() + rows + cols)
    return h.hexdigest()


# block calls and the sha256 of them all (_traffic_digest) by (kernel, n,
# mode): FIO n=512, leaf 1, r=6 streams runs of 4 blocks, Hankel n=256,
# leaf 1, r=4 whole lines, and Hankel n=1024, leaf 4, r=1 whole lines above
# the crossover
TRAFFIC = {
    (FioKernel, 512, "sampling"): (4, "c94dec7f8460cc62df64ac6e2ac10478dfb4e8"
                                      "ca8041d8e90d1a561a2945bf7b"),
    (FioKernel, 512, "streaming"): (128, "e319515c74aedb8a083a573f721acc156d"
                                         "69a1eaf10393bcb55f4b168ffd95c2"),
    (HankelKernel, 256, "sampling"): (2, "3360f341ebfa96281ab6c7eb01a917190b"
                                         "29dfbddee73af69eb759e5b1aff19b"),
    (HankelKernel, 256, "streaming"): (32, "ce3bd986c003c93fe70d17b8ec868394"
                                           "aae02e9a8396d62612046f6ac5a228d4"),
    (HankelKernel, 1024, "sampling"): (8, "8354497fa37f02d2faf4972538ba5b3f0"
                                          "3b480dca092e7f5a38fde577d4090ff"),
    (HankelKernel, 1024, "streaming"): (32, "fc01b191bf60931a2116add03209674"
                                            "a279ca4a62d03e7cbe8faf6e8a818c29e")}


@pytest.mark.parametrize("kernel, n, leaf, r", [
    (FioKernel, 512, 1, 6), (HankelKernel, 256, 1, 4),
    (HankelKernel, 1024, 4, 1)])
@pytest.mark.parametrize("mode", ["sampling", "streaming"])
def test_entry_oracle_traffic_is_frozen(kernel, n, leaf, r, mode):
    # every block(rows, cols) call, in order: reading dense lines draws no
    # random numbers, so the log is fixed by the reading rules alone
    oracle = LoggingOracle(kernel(n))
    factorize(oracle, make_partition(n, leaf), r, seed=0, mode=mode)
    assert (len(oracle.log), _traffic_digest(oracle.log)) == TRAFFIC[
        kernel, n, mode]


def test_streaming_engine_calls_are_sampling_calls_row_then_column_wise():
    # FIO n=1024, leaf 4, r=1: 16 x 16 blocks of side 64, four engine reads
    # a block.  Streaming samples each block once by block row, as sampling
    # does, and once more by block column, from the same per-block seed
    n, m = 1024, 16
    logs = []
    for mode in ("sampling", "streaming"):
        oracle = LoggingOracle(FioKernel(n))
        factorize(oracle, make_partition(n, 4), 1, seed=0, mode=mode)
        logs.append(oracle.log)
    sampling, streaming = logs
    assert len(sampling) == 4 * m * m and len(streaming) == 2 * len(sampling)
    assert streaming[:len(sampling)] == sampling
    by_column = [call for j in range(m) for i in range(m)
                 for call in sampling[4 * (i * m + j):4 * (i * m + j + 1)]]
    assert streaming[len(sampling):] == by_column


def _peak_over_factor_bytes(build):
    """Traced peak of ``build()`` over the bytes of the factors it returns."""
    # warm up: a first factorization in a process also traces lazily
    # initialised library state
    build()
    tracemalloc.start()
    try:
        f = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = f.middle.weights.nbytes + sum(
        tf.blocks.nbytes for tf in (f.u_outer, *f.g_chain, *f.h_chain,
                                    f.v_outer))
    return peak / held


@pytest.mark.parametrize("n, r", [(512, 6), (1024, 4)])
def test_streaming_peak_memory_near_factor_bytes(n, r):
    # dense lines read in runs of blocks (4 at n=512, 9 at n=1024) written
    # straight into the line: the traced peak reads 1.17x and 1.14x of the
    # factors it returns (one block a call: 1.21x and 1.13x; whole lines:
    # 1.57x at n=512)
    p = make_partition(n, 1)
    assert _peak_over_factor_bytes(partial(
        factorize, FioKernel(n), p, r, seed=0, mode="streaming")) <= 1.25


def test_streaming_peak_memory_at_an_engine_geometry():
    # FIO n=4096, leaf 16, r=4: side 256 above 32 r, so streaming samples
    # each block through the engine, one block a run, and places it before
    # the next is read.  The traced peak reads 1.70x the factors it returns;
    # whole engine lines read 1.84x, and 2.18x if the last one is still held
    # while the next is sampled
    n, r = 4096, 4
    p = make_partition(n, 16)
    assert not at_dense_limit(p.mid_side, p.mid_side, r)
    assert _peak_over_factor_bytes(partial(
        factorize, FioKernel(n), p, r, seed=0, mode="streaming")) <= 1.78


def test_sampling_peak_memory_near_factor_bytes(monkeypatch):
    # fio-ref geometry on two workers: the middle-level U (n m r entries)
    # is freed once it is refactored, before V is, so the traced peak
    # reads 1.40x the factors (1.76x while U lived on)
    n = 1024
    use_workers(monkeypatch, 2)
    assert _peak_over_factor_bytes(partial(
        factorize, FioKernel(n), make_partition(n, 0.25), 8, seed=0)) <= 1.6


def test_dense_lines_of_many_rows_keep_the_peak_near_factor_bytes(
        monkeypatch):
    # hankel's geometry on two workers reads 8 of its 32 block rows a call:
    # the traced peak reads 1.43-1.45x the factors, the refactoring's own
    # peak, as at one block row a call; 16 or 32 block rows a call lift the
    # middle level over it, to about 1.75x
    n = 512
    use_workers(monkeypatch, 2)
    assert _peak_over_factor_bytes(partial(
        factorize, HankelKernel(n), make_partition(n, 0.25), 6, seed=0)) <= 1.6


@pytest.mark.parametrize("kernel, n, leaf, side, calls", [
    # sketched lines (side 32, 16 block rows) and truncated ones (side 16,
    # 32 block rows, r + 5 over half a side), read 1, 3 (a short last
    # call) and by default 128 // side block rows a call
    (FioKernel, 512, 1, 32, {1: 16, 3: 6, None: 4}),
    (HankelKernel, 512, 0.25, 16, {1: 32, 3: 11, None: 4})])
def test_sampling_factors_do_not_depend_on_the_rows_a_call(
        monkeypatch, kernel, n, leaf, side, calls):
    r = 6
    p = make_partition(n, leaf)
    assert p.mid_side == side and at_dense_limit(side, side, r)
    assert construct._narrow(side, r) == (side == 16)
    streamed = factorize(kernel(n), p, r, seed=4, mode="streaming")
    for rows, count in calls.items():
        if rows is not None:
            monkeypatch.setattr(construct, "CALL_WIDTH", rows * side)
        oracle = CountingOracle(kernel(n))
        f = factorize(oracle, p, r, seed=4, mode="sampling")
        assert oracle.calls == count
        assert factors_equal(f, streamed)
        monkeypatch.undo()


@pytest.mark.slow
def test_sketched_factors_identical_across_blas_threads(tmp_path):
    # n=4096, leaf 1, r=4 compresses its 64 x 64 blocks by the sketched SVD
    def factor(threads):
        out = tmp_path / f"t{threads}.bfac"
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "butterfly", "factor", "--kernel", "fio",
             "--n", "4096", "--rank", "4", "--seed", "0", "--leaf", "1",
             "--mode", "sampling", "--out", str(out)], env=env, check=True)
        return out.read_bytes()

    assert factor("1") == factor("2")


def _matrix_with_nan_block(n, leaf, i, j, whole):
    p = make_partition(n, leaf)
    k = dense_matrix(FioKernel(n), n)
    side = p.mid_side
    if whole:
        k[i * side:(i + 1) * side, j * side:(j + 1) * side] = np.nan
    else:
        k[i * side + 1, j * side + 3] = np.nan
    return p, DenseOracle(k)


@pytest.mark.parametrize("mode, n, leaf, whole", [
    ("sampling", 128, 0.25, False), ("streaming", 128, 0.25, False),
    ("matvec", 128, 0.25, False), ("sampling", 256, 1, True),
    ("streaming", 256, 1, True),
    # sketched dense lines (side 32)
    ("sampling", 1024, 1, False), ("streaming", 1024, 1, False),
    # operator probes above the identity crossover (side 64, r + 5 = 9)
    ("matvec", 1024, 4, False)])
def test_non_finite_oracle_output_names_the_block(mode, n, leaf, whole):
    p, oracle = _matrix_with_nan_block(n, leaf, 2, 5, whole)
    assert at_dense_limit(p.mid_side, p.mid_side, 4)
    with pytest.raises(OracleError, match=r"non-finite.*block \(2, 5\)"):
        factorize(oracle, p, 4, seed=0, mode=mode)


@pytest.mark.parametrize("mode, n, leaf, r, named", [
    ("sampling", 512, 1, 6, r"blocks \(0, 0\) to \(3, 15\)"),  # 4 rows a call
    ("streaming", 512, 1, 6, r"blocks \(0, 0\) to \(0, 3\)$"),  # a run
    # above the crossover the sampling engine reads a block in several calls
    ("sampling", 1024, 4, 1, r"block \(0, 0\)$"),
    ("streaming", 1024, 4, 1, r"block \(0, 0\)$")])
def test_failing_entry_oracle_names_the_blocks_it_was_reading(mode, n, leaf,
                                                              r, named):
    class Failing:
        shape = (n, n)

        def block(self, rows, cols):
            raise RuntimeError("unavailable")

    with pytest.raises(OracleError, match=rf"middle {named}"):
        factorize(Failing(), make_partition(n, leaf), r, seed=0, mode=mode)


@pytest.mark.parametrize("n, leaf, r, fails, named", [
    # identity slices: K* of 8 block rows a call (side 16)
    (512, 0.5, 8, "both", r"middle block rows 0 to 7"),
    # a non-finite slice of K* sends K to its first flagged block column
    (512, 0.5, 8, "apply", r"middle block column 0"),
    (1024, 4, 4, "both", r"the probe block")])  # probes (side 64)
def test_failing_operator_oracle_names_what_it_was_applying(n, leaf, r,
                                                           fails, named):
    class Failing:
        shape = (n, n)

        def apply(self, x):
            raise RuntimeError("unavailable")

        def apply_adjoint(self, x):
            if fails == "both":
                raise RuntimeError("unavailable")
            return np.full(x.shape, np.nan, dtype=complex)

    with pytest.raises(OracleError,
                       match=rf"operator oracle failed on {named}$"):
        factorize(Failing(), make_partition(n, leaf), r, seed=0,
                  mode="matvec")


class Misshapen(CountingOracle):
    """Entry lines come back transposed, operator products as one column."""

    def block(self, rows, cols):
        return super().block(rows, cols).T

    def apply(self, x):
        return super().apply(x)[:, :1]

    def apply_adjoint(self, x):
        return super().apply_adjoint(x)[:, :1]


@pytest.mark.parametrize("kernel, n, leaf, r, mode, named", [
    ("fio", 512, 1, 6, "sampling", r"middle blocks \(0, 0\) to \(3, 15\)"),
    ("fio", 512, 1, 6, "streaming", r"middle blocks \(0, 0\) to \(0, 3\)"),
    # identity slices (side 8, 16 block rows a call) and probes (side 64)
    ("composition", 256, 0.25, 4, "matvec", r"middle block rows 0 to 15"),
    ("composition", 1024, 4, 4, "matvec", r"the probe block")])
def test_oracle_output_of_another_shape_names_what_was_read(kernel, n, leaf,
                                                            r, mode, named):
    # a transposed line would fill the blocks with the wrong entries, and a
    # single product column would broadcast over the probe slice
    p, oracle, _, mode = build_operator(kernel, n, r, leaf, mode, 0)
    with pytest.raises(OracleError, match=rf"failed on {named}$") as err:
        factorize(Misshapen(oracle), p, r, seed=0, mode=mode)
    assert "oracle output is" in str(err.value.__cause__)


@pytest.mark.parametrize("mode", ["sampling", "streaming"])
def test_a_lapack_failure_above_the_crossover_is_not_an_oracle_failure(
        monkeypatch, mode):
    # as on the dense route, an error of the engine's own linear algebra
    # reaches the caller as itself, not as a failure of the oracle
    def failing(a):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(lowrank, "pinv_floored", failing)
    p = make_partition(1024, 4)
    assert not at_dense_limit(p.mid_side, p.mid_side, 1)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        factorize(FioKernel(1024), p, 1, seed=0, mode=mode)


@pytest.mark.parametrize("mode", ["sampling", "streaming"])
def test_non_finite_entry_names_the_block_above_the_crossover(mode):
    # the randomized engine samples rows and columns, so fill the block
    p, oracle = _matrix_with_nan_block(1024, 4, 2, 5, True)
    assert not at_dense_limit(p.mid_side, p.mid_side, 1)
    with pytest.raises(OracleError, match=r"non-finite.*block \(2, 5\)"):
        factorize(oracle, p, 1, seed=0, mode=mode)


def test_factorize_mode_oracle_mismatch():
    n = 64
    p = make_partition(n, 1)
    with pytest.raises(ValueError):
        factorize(FioKernel(n), p, 2, seed=0, mode="matvec")

    class OpOnly:
        shape = (n, n)

        def apply(self, x):
            return x

        def apply_adjoint(self, x):
            return x

    with pytest.raises(ValueError):
        factorize(OpOnly(), p, 2, seed=0, mode="sampling")
    with pytest.raises(ValueError):
        factorize(FioKernel(n), p, 2, seed=0, mode="nonsense")


@pytest.mark.parametrize("mode", ["sampling", "streaming", "matvec"])
@pytest.mark.parametrize("size", [128, 512])
def test_factorize_rejects_an_oracle_of_another_size(mode, size):
    # a larger oracle would be factored in its leading corner; the sizes
    # are compared before the oracle is called
    p = make_partition(256, 1)
    oracle = CountingOracle(DenseOracle(np.eye(size)))
    with pytest.raises(ValueError,
                       match=rf"\({size}, {size}\).*\(256, 256\)"):
        factorize(oracle, p, 4, seed=0, mode=mode)
    assert oracle.calls == 0


@pytest.mark.parametrize("mode", ["sampling", "streaming", "matvec"])
def test_every_sparse_factor_follows_chain_geometry(mode):
    # one layout: each side is its transfer levels in ascending order, then
    # the leaf at level ``levels`` as a t = pairs = 1 level
    n, r = 64, 3
    p = make_partition(n, 0.25)
    oracle = DenseOracle(dense_matrix(FioKernel(n), n))
    f = factorize(oracle, p, r, seed=0, mode=mode)
    geometry = chain_geometry(p, r)
    leaf_level, (_, pairs, t, _, _) = geometry[-1]
    assert (leaf_level, t, pairs) == (p.levels, 1, 1)
    for side in ((*f.g_chain, f.u_outer), (*f.h_chain, f.v_outer)):
        assert all(isinstance(tf, TransferFactor) for tf in side)
        assert [(tf.level, tf.blocks.shape) for tf in side] == geometry


def test_apply_against_dense_and_columns(rng):
    n = 256
    p = make_partition(n, 0.25)
    k = dense_matrix(FioKernel(n), n)
    f = factorize(FioKernel(n), p, 8, seed=1)
    for _ in range(10):
        g = complex_gaussian(rng, n)
        err = np.linalg.norm(f.apply(g) - k @ g) / np.linalg.norm(k @ g)
        assert err <= 1e-6
    # basis-vector probes reproduce columns within the global budget
    budget = np.linalg.norm(k - f.dense())
    for j in (0, 100, n - 1):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        assert np.linalg.norm(f.apply(e) - k[:, j]) <= budget + 1e-13


def test_apply_adjoint_against_dense(rng):
    n = 256
    p = make_partition(n, 0.25)
    k = dense_matrix(FioKernel(n), n)
    f = factorize(FioKernel(n), p, 8, seed=2)
    g = complex_gaussian(rng, n)
    want = k.conj().T @ g
    assert np.linalg.norm(f.apply_adjoint(g) - want) <= 1e-6 * np.linalg.norm(want)


def test_exact_rank_chain_reproduction_all_modes(rng):
    p = make_partition(64, 1)
    chain = random_exact_chain(p, 3, rng)
    k = chain.dense()
    for mode in ("sampling", "matvec", "streaming"):
        f = factorize(DenseOracle(k), p, 3, seed=8, mode=mode)
        g = complex_gaussian(rng, 64)
        err = np.linalg.norm(f.apply(g) - k @ g) / np.linalg.norm(k @ g)
        assert err <= 1e-10


class LoggingEntryOracle:
    """Entry oracle that logs the calling thread and the arguments of every
    call."""

    def __init__(self, inner):
        self.inner, self.shape, self.log = inner, inner.shape, []

    def _log(self, name, *args):
        self.log.append((threading.get_ident(), name,
                         *(np.asarray(a).tobytes() for a in args)))

    def block(self, rows, cols):
        self._log("block", rows, cols)
        return self.inner.block(rows, cols)


class LoggingOperatorOracle(LoggingEntryOracle):
    def apply(self, x):
        self._log("apply", x)
        return self.inner.apply(x)

    def apply_adjoint(self, x):
        self._log("apply_adjoint", x)
        return self.inner.apply_adjoint(x)


@pytest.mark.parametrize("mode, n, leaf, r", [
    ("sampling", 256, 0.25, 4),   # dense lines, truncated SVD
    ("sampling", 256, 1, 2),      # dense lines, sketched SVD
    ("sampling", 1024, 4, 1),     # sampling engine (side 64 > 32 r)
    ("streaming", 256, 1, 2),
    ("matvec", 128, 0.25, 4),     # identity slices (r + 5 over side / 2)
    ("matvec", 1024, 4, 4)])      # probes (side 64)
def test_oracles_are_called_from_the_calling_thread_in_serial_order(
        monkeypatch, mode, n, leaf, r):
    if mode == "matvec":
        p, op, _, _ = build_operator("composition", n, r, leaf, mode, 0)
        make = lambda: LoggingOperatorOracle(op)  # noqa: E731
    else:
        p = make_partition(n, leaf)
        make = lambda: LoggingEntryOracle(FioKernel(n))  # noqa: E731
    logs = []
    for workers in (1, 3):
        use_workers(monkeypatch, workers)
        oracle = make()
        factorize(oracle, p, r, seed=0, mode=mode)
        logs.append(oracle.log)
    serial, pooled = logs
    assert {call[0] for call in serial + pooled} == {threading.get_ident()}
    assert [call[1:] for call in pooled] == [call[1:] for call in serial]


_STAGES = {"middle_sampling": middle_factorization_sampling,
           "middle_matvec": middle_factorization_matvec}


@pytest.mark.parametrize("seed", [None, -1, 1.5, "0"])
@pytest.mark.parametrize("mode", ["sampling", "streaming", "matvec",
                                  *_STAGES])
def test_factorize_rejects_a_seed_that_is_not_a_non_negative_integer(mode,
                                                                     seed):
    # None drew fresh entropy per sketched block, so two builds differed;
    # -1 passed on truncated lines and failed on sketched ones in the pool.
    # The stage functions check it too, before any oracle call
    n = 256
    oracle = LoggingOperatorOracle(DenseOracle(dense_matrix(FioKernel(n), n)))
    build = _STAGES.get(mode, partial(factorize, mode=mode))
    with pytest.raises(ValueError, match=re.escape(f"got {seed!r}")):
        build(oracle, make_partition(n, 1), 4, seed=seed)
    assert not oracle.log


def test_factorize_takes_a_numpy_integer_seed():
    n, p = 128, make_partition(128, 1)
    assert factors_equal(factorize(FioKernel(n), p, 2, seed=np.uint32(5)),
                         factorize(FioKernel(n), p, 2, seed=5))


@pytest.mark.parametrize("kernel, n, leaf, r, mode", [
    ("fio", 256, 0.25, 4, "sampling"), ("fio", 256, 1, 2, "sampling"),
    ("composition", 128, 0.25, 4, "matvec"),
    # the inner chain's 128-vector applies run as pooled subtree groups
    ("composition", 512, 0.5, 8, "matvec")])
def test_factors_do_not_depend_on_the_worker_count(monkeypatch, kernel, n,
                                                   leaf, r, mode):
    # the refactoring's group size follows the worker count, and so does
    # the group count of a pooled apply, so this also covers different
    # groupings of the middle nodes
    p, oracle, _, mode = build_operator(kernel, n, r, leaf, mode, 0)
    pooled, spans = [], _pool.spans

    def spy(m, stored=None, vectors=1):
        cut = spans(m, stored, vectors)
        if stored is not None and len(cut) > 1:  # an apply split into groups
            # the inner chain's blocks of 128 and 32 vectors, never one
            rule = min(m, 4 * _pool.worker_count(),
                       stored * vectors // _pool._GROUP_WORK)
            pooled.append(vectors > 1 and len(cut) == rule)
        return cut

    monkeypatch.setattr(_pool, "spans", spy)
    built = []
    for workers in (1, 3):
        use_workers(monkeypatch, workers)
        built.append(factorize(oracle, p, r, seed=0, mode=mode))
    assert factors_equal(*built)
    assert bool(pooled) == (n == 512) and all(pooled)


def warm_pool(monkeypatch, workers):
    """Size the pool to ``workers`` threads and start every one of them,
    then join the threads of the pools it replaced, which exit on their own
    once dropped: ``threading.active_count()`` then counts the kept pool
    whole and no other pool."""
    use_workers(monkeypatch, workers)
    ours, barrier = set(), threading.Barrier(workers, timeout=30)

    def meet():  # each task waits for the others, so each has a thread
        ours.add(threading.current_thread())
        barrier.wait()

    _pool.in_pool((meet, [()] * workers))
    gc.collect()  # a traceback kept in a cycle may still hold an old pool
    for thread in threading.enumerate():
        if thread.name.startswith("butterfly") and thread not in ours:
            thread.join(timeout=30)
            assert not thread.is_alive()


@pytest.mark.parametrize("where", ["first line", "last line", "oracle"])
def test_a_failure_leaves_no_thread_behind(monkeypatch, where):
    # FIO n=256 at leaf 0.25 has 32 block rows, each one truncated_svd call.
    # The process keeps its pool, so it is warmed at 3 threads first: the
    # failing factorize may then start no thread and leave no task running
    n, m = 256, 32
    warm_pool(monkeypatch, 3)
    threads = threading.active_count()
    oracle, error, seen = FioKernel(n), np.linalg.LinAlgError, []
    lock = threading.Lock()
    if where == "oracle":
        # block rows are read 16 a call (128 rows of K): lines 0 to 15 are
        # in the pool or done when the read of lines 16 to 31 fails
        _, oracle = _matrix_with_nan_block(n, 0.25, 21, 7, False)
        error = OracleError
    else:
        fail_at = 1 if where == "first line" else m
        svd = construct.truncated_svd

        def failing(*args):
            with lock:
                seen.append(threading.get_ident())
                if len(seen) == fail_at:
                    raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args)

        monkeypatch.setattr(construct, "truncated_svd", failing)
    with pytest.raises(error):
        factorize(oracle, make_partition(n, 0.25), 4, seed=0)
    assert threading.get_ident() not in seen
    assert seen or where == "oracle"
    assert threading.active_count() == threads


def test_pool_size_shares_the_cpus_with_blas_threads(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    for var in _pool.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert _pool.worker_count() == 1  # BLAS default: every CPU a call
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert _pool.worker_count() == cpus
    # the library's own variable comes before OpenMP's
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert _pool.worker_count() == max(1, cpus // min(2, cpus))

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from butterfly import (DenseOracle, FioKernel, HankelKernel, OracleError,
                       dense_matrix, factorize, factors_equal, make_partition,
                       middle_factorization_matvec,
                       middle_factorization_sampling, recursive_factor_u,
                       recursive_factor_v, truncated_svd)
from butterfly.construct import block_diagonal_probe
from butterfly.factors import TransferFactor, chain_geometry
from butterfly.lowrank import at_dense_limit, floored_inverse

from conftest import complex_gaussian, random_exact_chain


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
    # side n/m, so the reconstruction claim holds for r = n/m (the probes
    # are then whole blocks, side columns wide).
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


def test_probe_shape():
    p = make_partition(64, 1)
    width = 4 + 5
    probe = block_diagonal_probe(p, width, seed=0, domain=1)
    assert probe.shape == (64, p.mid_nodes * width)
    assert np.count_nonzero(probe) == 64 * width


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
# Middle sides 8, 4, 16 and 16 take dense lines compressed by a truncated
# SVD (r + 5 above half the side) and FIO side 32 at r=4 the sketched SVD.
# Streaming reads FIO's dense lines block by block and Hankel's, whose
# blocks cost whole rows, as whole block rows and columns.
STREAMING_CASES = [(FioKernel, 128, 0.25, 4), (HankelKernel, 64, 0.25, 3),
                   (FioKernel, 256, 1, 4), (HankelKernel, 256, 1, 4),
                   (FioKernel, 1024, 1, 4), *ENGINE_CASES]


@pytest.mark.parametrize("kernel, n, leaf, r", STREAMING_CASES)
def test_streaming_matches_sampling_bitwise(kernel, n, leaf, r):
    p = make_partition(n, leaf)
    engine = (kernel, n, leaf, r) in ENGINE_CASES
    assert at_dense_limit(p.mid_side, p.mid_side, r) != engine
    a = factorize(kernel(n), p, r, seed=9, mode="sampling")
    b = factorize(kernel(n), p, r, seed=9, mode="streaming")
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
            apx = truncated_svd(ker.block(p.node_range(p.half, i),
                                          p.node_range(p.half, j)), r)
            u[i, :, j, :] = apx.u0 * apx.sigma0
            v[j, :, i, :] = apx.v0 * apx.sigma0
            w[i, j] = floored_inverse(apx.sigma0)
    u_h, middle, v_h = middle_factorization_sampling(kernel(n), p, r, seed=5)
    assert np.array_equal(u_h.blocks, u.reshape(m, 1, 1, side, m * r))
    assert np.array_equal(v_h.blocks, v.reshape(m, 1, 1, side, m * r))
    assert np.array_equal(middle.weights, w)
    assert np.count_nonzero(middle.weights == 0) == np.count_nonzero(w == 0)


class CountingOracle:
    def __init__(self, inner):
        self.inner, self.shape, self.calls = inner, inner.shape, 0
        self.entries = 0
        self.whole_rows = getattr(inner, "whole_rows", False)

    def block(self, rows, cols):
        self.calls += 1
        self.entries += np.size(rows) * np.size(cols)
        return self.inner.block(rows, cols)

    def apply(self, x):
        self.calls += 1
        return self.inner.apply(x)

    def apply_adjoint(self, x):
        self.calls += 1
        return self.inner.apply_adjoint(x)


@pytest.mark.parametrize("kernel, n, leaf, mode, calls", [
    (FioKernel, 128, 0.25, "sampling", 16),
    (FioKernel, 128, 0.25, "streaming", 512),
    (HankelKernel, 256, 1, "sampling", 16),
    (HankelKernel, 256, 1, "streaming", 32)])
def test_dense_limit_one_oracle_call_per_block_line(kernel, n, leaf, mode,
                                                    calls):
    # 16 middle nodes at r=4: sampling makes one call per block row instead
    # of one per block.  Streaming reads FIO's dense lines one block at a
    # time on each side (16 x 16 x 2 calls); Hankel's blocks cost whole
    # rows, so it reads whole block rows and columns
    p = make_partition(n, leaf)
    assert p.mid_nodes == 16
    oracle = CountingOracle(kernel(n))
    factorize(oracle, p, 4, seed=0, mode=mode)
    assert oracle.calls == calls


@pytest.mark.parametrize("mode", ["sampling", "streaming"])
def test_whole_rows_oracle_reads_whole_lines_above_the_crossover(mode):
    # Hankel side 64 at r=1 is above the crossover, where an oracle without
    # whole_rows goes through the sampling engine
    p = make_partition(1024, 4)
    assert p.mid_nodes == 16 and not at_dense_limit(64, 64, 1)
    oracle = CountingOracle(HankelKernel(1024))
    factorize(oracle, p, 1, seed=0, mode=mode)
    assert oracle.calls == {"sampling": 16, "streaming": 32}[mode]


@pytest.mark.parametrize("mode, calls, reads", [("sampling", 16, 1),
                                                ("streaming", 512, 2)])
def test_dense_lines_evaluate_each_entry_once_per_line(mode, calls, reads):
    # FIO n=512, leaf 1, r=6: 32 x 32 blocks below the crossover.  Sampling
    # reads each block row whole; streaming reads each block alone, once
    # for its block row and once for its block column
    n = 512
    p = make_partition(n, 1)
    assert (p.mid_nodes, p.mid_side) == (16, 32) and at_dense_limit(32, 32, 6)
    oracle = CountingOracle(FioKernel(n))
    factorize(oracle, p, 6, seed=0, mode=mode)
    assert (oracle.calls, oracle.entries) == (calls, reads * n * n)


def test_streaming_peak_memory_near_factor_bytes():
    # block-at-a-time dense lines never hold a side x n line: the traced
    # peak stays within 1.25x of the factors it returns (whole lines: 1.57x)
    n = 512
    p = make_partition(n, 1)
    # warm up: a first factorization in a process also traces lazily
    # initialised library state
    factorize(FioKernel(n), p, 6, seed=0, mode="streaming")
    tracemalloc.start()
    try:
        f = factorize(FioKernel(n), p, 6, seed=0, mode="streaming")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = f.middle.weights.nbytes + sum(
        tf.blocks.nbytes for tf in (f.u_outer, *f.g_chain, *f.h_chain,
                                    f.v_outer))
    assert peak <= 1.25 * held


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
    rows, cols = p.node_range(p.half, i), p.node_range(p.half, j)
    if whole:
        k[rows.start:rows.stop, cols.start:cols.stop] = np.nan
    else:
        k[rows.start + 1, cols.start + 3] = np.nan
    return p, DenseOracle(k)


@pytest.mark.parametrize("mode, n, leaf, whole", [
    ("sampling", 128, 0.25, False), ("streaming", 128, 0.25, False),
    ("matvec", 128, 0.25, False), ("sampling", 256, 1, True),
    ("streaming", 256, 1, True),
    # sketched dense lines (side 32)
    ("sampling", 1024, 1, False), ("streaming", 1024, 1, False)])
def test_non_finite_oracle_output_names_the_block(mode, n, leaf, whole):
    p, oracle = _matrix_with_nan_block(n, leaf, 2, 5, whole)
    assert at_dense_limit(p.mid_side, p.mid_side, 4)
    with pytest.raises(OracleError, match=r"non-finite.*block \(2, 5\)"):
        factorize(oracle, p, 4, seed=0, mode=mode)


@pytest.mark.parametrize("mode, blocks", [
    ("sampling", r"\(0, 0\) to \(0, 15\)"),   # one call per block row
    ("streaming", r"\(0, 0\) to \(0, 0\)")])  # one call per block
def test_failing_entry_oracle_names_the_blocks_it_was_reading(mode, blocks):
    class Failing:
        shape = (512, 512)

        def block(self, rows, cols):
            raise RuntimeError("unavailable")

    with pytest.raises(OracleError, match=rf"middle blocks {blocks}"):
        factorize(Failing(), make_partition(512, 1), 6, seed=0, mode=mode)


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
    leaf_level, (_, t, pairs, _, _) = geometry[-1]
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

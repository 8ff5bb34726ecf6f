import re
import tracemalloc

import numpy as np
import pytest

from butterfly import FioKernel, HankelKernel, factorize, make_partition
from butterfly import _pool

from conftest import complex_gaussian, random_exact_chain, use_workers


@pytest.fixture(scope="module")
def fio_factors():
    n = 128
    p = make_partition(n, 0.25)
    return factorize(FioKernel(n), p, 4, seed=0)


def test_apply_zero_vector(fio_factors):
    out = fio_factors.apply(np.zeros(128, dtype=complex))
    assert np.array_equal(out, np.zeros(128, dtype=complex))


def test_apply_rejects_bad_length(fio_factors):
    with pytest.raises(ValueError):
        fio_factors.apply(np.zeros(64))
    with pytest.raises(ValueError):
        fio_factors.apply_adjoint(np.zeros(64))


@pytest.mark.parametrize("shape", [(), (128, 2, 3)], ids=["0-d", "3-d"])
def test_apply_rejects_inputs_that_are_not_a_vector_or_a_block(fio_factors,
                                                               shape):
    # a 0-d input raised IndexError, and (n, 2, 3) came back as (n, 6)
    for apply in (fio_factors.apply, fio_factors.apply_adjoint):
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            apply(np.zeros(shape, dtype=complex))


def test_apply_of_an_empty_block_is_an_empty_block(fio_factors):
    for apply in (fio_factors.apply, fio_factors.apply_adjoint):
        for dtype in (float, complex):
            out = apply(np.zeros((128, 0), dtype=dtype))
            assert out.shape == (128, 0) and out.dtype == np.complex128


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_apply_rejects_non_finite_rows(fio_factors, rng, bad):
    block = complex_gaussian(rng, (128, 3))
    block[41, 2] = bad
    block[90, 0] = bad
    for apply in (fio_factors.apply, fio_factors.apply_adjoint):
        with pytest.raises(ValueError, match="input row 41 "):
            apply(block)
        with pytest.raises(ValueError, match="input row 90 "):
            apply(block[:, 0])


def test_apply_is_linear(fio_factors, rng):
    x = complex_gaussian(rng, 128)
    y = complex_gaussian(rng, 128)
    a, b = 0.3 - 1.1j, -2.0 + 0.4j
    lhs = fio_factors.apply(a * x + b * y)
    rhs = a * fio_factors.apply(x) + b * fio_factors.apply(y)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)


def test_adjoint_inner_product_identity(fio_factors, rng):
    for _ in range(10):
        x = complex_gaussian(rng, 128)
        y = complex_gaussian(rng, 128)
        lhs = np.vdot(y, fio_factors.apply(x))
        rhs = np.vdot(fio_factors.apply_adjoint(y), x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_matrix_apply_matches_columnwise(fio_factors, rng):
    block = complex_gaussian(rng, (128, 5))
    out = fio_factors.apply(block)
    for k in range(5):
        col = fio_factors.apply(block[:, k])
        assert np.linalg.norm(out[:, k] - col) <= 1e-13 * np.linalg.norm(col)


def test_nnz_identities(fio_factors):
    p = fio_factors.partition
    r = fio_factors.rank
    rep = fio_factors.nnz_report()
    leaf_rank = min(r, max(1, p.n >> p.levels))
    assert rep.middle == 2 ** p.levels * r
    assert rep.u_outer == p.n * leaf_rank
    assert rep.v_outer == p.n * leaf_rank
    assert rep.total == sum([rep.u_outer, rep.v_outer, rep.middle,
                             *rep.g.values(), *rep.h.values()])


def test_transfer_nnz_equal_across_levels_with_integer_leaves(rng):
    # all levels split rows when leaves hold whole indices
    p = make_partition(256, 1)
    f = random_exact_chain(p, 3, rng)
    counts = {tf.nnz for tf in f.g_chain} | {tf.nnz for tf in f.h_chain}
    assert counts == {2 ** (p.levels + 1) * 3 * 3}


def test_total_nnz_is_quasilinear(fio_factors):
    p = fio_factors.partition
    r = fio_factors.rank
    bound = 4 * r * r * p.n * max(np.log2(p.n), 1.0)
    assert fio_factors.nnz_report().total <= bound * 4


def test_stored_entries_are_almost_all_nonzero():
    # rank-exact levels: no zero padding, even two levels past single indices
    n = 256
    f = factorize(FioKernel(n), make_partition(n, 0.25), 8, seed=0)
    arrays = [f.u_outer.blocks, f.v_outer.blocks, f.middle.weights]
    arrays += [tf.blocks for tf in f.g_chain + f.h_chain]
    zeros = sum(a.size - np.count_nonzero(a) for a in arrays)
    assert zeros < 0.01 * f.nnz_report().total


def test_stored_hankel_entries_are_almost_all_nonzero():
    # levels that keep every row (4, 2 and 1 rows per node below the
    # first, truncating level) store no zeros from their QR's triangle
    n = 512
    f = factorize(HankelKernel(n), make_partition(n, 0.25), 6, seed=0)
    arrays = [f.u_outer.blocks, f.v_outer.blocks, f.middle.weights]
    arrays += [tf.blocks for tf in f.g_chain + f.h_chain]
    zeros = sum(a.size - np.count_nonzero(a) for a in arrays)
    assert zeros < 0.01 * f.nnz_report().total


def test_dense_factor_views_compose(rng):
    p = make_partition(64, 1)
    f = random_exact_chain(p, 2, rng)
    full = f.u_outer.dense()
    for tf in reversed(f.g_chain):
        full = full @ tf.dense()
    full = full @ f.middle.dense()
    for tf in f.h_chain:
        full = full @ tf.dense().conj().T
    full = full @ f.v_outer.dense().conj().T
    assert np.allclose(full, f.dense(), atol=1e-12)


def test_dense_places_blocks_at_their_offsets(rng):
    # reference: every block written at its documented offset, one by one;
    # the leaf, last on the side, is the block-diagonal t = pairs = 1 case
    f = random_exact_chain(make_partition(64, 0.25), 3, rng)
    for tf in f.sides[0]:
        nodes, pairs, t, k_out, two_k = tf.blocks.shape
        want = np.zeros(tf.shape, dtype=complex)
        for i, s, j in np.ndindex(nodes, t, pairs):
            r0 = ((i * t + s) * pairs + j) * k_out
            c0 = (i * pairs + j) * two_k
            want[r0:r0 + k_out, c0:c0 + two_k] = tf.blocks[i, j, s]
        assert np.array_equal(tf.dense(), want)
    m, r = f.middle.m, f.middle.rank
    want = np.zeros(f.middle.shape, dtype=complex)
    for i in range(m):
        for j in range(m):
            r0, c0 = (i * m + j) * r, (j * m + i) * r
            want[r0:r0 + r, c0:c0 + r] = np.diag(f.middle.weights[i, j])
    assert np.array_equal(f.middle.dense(), want)


def test_one_vector_adjoint_matches_block_path(rng):
    # one vector conjugates itself instead of the blocks; a wider block
    # still conjugates the blocks, and both must agree on every factor
    n = 256
    f = factorize(FioKernel(n), make_partition(n, 1), 4, seed=0)
    for fac in [f.u_outer, *f.g_chain, *f.h_chain, f.v_outer]:
        w = complex_gaussian(rng, (fac.shape[0], 2))
        one = fac.adjoint(w[:, :1])
        wide = fac.adjoint(w)[:, :1]
        assert one.shape == wide.shape
        assert np.linalg.norm(one - wide) <= 1e-14 * np.linalg.norm(wide)


@pytest.mark.parametrize("width", [1, 64])
def test_factor_by_factor_chain_equals_apply_bitwise(rng, width):
    # every factor called on its own, without work buffers, in the order
    # apply uses them; t = 2 levels with pairs > 1 take the one-matmul paths
    n = 256
    f = factorize(FioKernel(n), make_partition(n, 0.25), 4, seed=0)
    assert any(pairs > 1 and t == 2
               for _, pairs, t, _, _ in (tf.blocks.shape for tf in f.g_chain))
    g = complex_gaussian(rng, (n, width))
    left, right = f.sides
    for apply, first, middle, last in (
            (f.apply, left, f.middle.forward, right),
            (f.apply_adjoint, right, f.middle.adjoint, left)):
        w = g
        for tf in reversed(last):
            w = tf.adjoint(w)
        w = middle(w)
        for tf in first:
            w = tf.forward(w)
        assert np.array_equal(w, apply(g))


def test_block_apply_peak_and_no_aliasing(fio_ref_factors, fio_stream_factors,
                                          rng, monkeypatch):
    # one group: two work buffers as long as the widest level, the middle's
    # input a view of one of them and the result allocated last; the
    # 64-vector apply read 3.25 times the widest level (109.1 MB) when
    # every level allocated.  Split: the middle's input and the result
    # plus two buffers per running group, each a share of the widest level.
    for f, width, counts, bound in (
            (fio_ref_factors, 64, (1, 2, 4), 2.5),  # 4 to 16 groups
            (fio_stream_factors, 64, (1, 2, 4), 2.5),  # one group
            (fio_stream_factors, 130, (2,), 3.0)):  # 3 groups
        n = f.n
        widest = 16 * width * f.middle.shape[0]  # no level is wider
        g = complex_gaussian(rng, (n, width))
        kept = g.copy()
        for workers in counts:
            use_workers(monkeypatch, workers)
            outs = []
            for apply in (f.apply, f.apply_adjoint):
                tracemalloc.start()
                try:
                    outs.append(apply(g))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= bound * widest
            copies = [out.copy() for out in outs]
            f.apply(g[:, ::-1])
            f.apply_adjoint(g[:, ::-1])
            assert np.array_equal(g, kept)
            for out, copy in zip(outs, copies):
                assert out.shape == (n, width) and not np.shares_memory(out, g)
                assert np.array_equal(out, copy)
            assert not np.shares_memory(*outs)


@pytest.fixture(scope="module", params=["m64", "m16"])
def pooled_case(request, fio_ref_factors, fio_stream_factors):
    return fio_ref_factors if request.param == "m64" else fio_stream_factors


@pytest.mark.parametrize("width", [1, 64, 130])
def test_pooled_apply_equals_one_group_bitwise(pooled_case, rng, monkeypatch,
                                               width):
    # groups = min(m, per worker * workers, stored entries * vectors //
    # share): at one vector 1 per worker and 800 k, which cuts fio-ref's
    # 1.78 M stored entries into 2 groups and leaves fio-stream's 0.11 M
    # whole; for a block 4 per worker and 4 M, which at m = 16 and 130
    # vectors is 3 groups of 5, 5 and 6 middle nodes
    f = pooled_case
    g = complex_gaussian(rng, (f.n, width))
    groups, spans = [], _pool.spans

    def spy(m, stored=None, vectors=1):
        cut = spans(m, stored, vectors)
        groups.append(len(cut))
        return cut

    monkeypatch.setattr(_pool, "spans", spy)
    with pytest.MonkeyPatch.context() as one_group:
        one_group.setattr(_pool, "_GROUP_WORK", 10 ** 18)
        one_group.setattr(_pool, "_VECTOR_WORK", 10 ** 18)
        want = [f.apply(g), f.apply_adjoint(g)]
    assert groups == [1, 1]
    groups.clear()
    per_worker, share = ((1, _pool._VECTOR_WORK) if width == 1
                         else (4, _pool._GROUP_WORK))
    work = width * f.nnz_report().total
    for workers in (1, 2, 3, 4):
        use_workers(monkeypatch, workers)
        for out, one in zip((f.apply(g), f.apply_adjoint(g)), want):
            assert np.array_equal(out, one)
        rule = max(1, min(f.middle.m, per_worker * workers, work // share))
        assert groups == [rule] * 2
        if width == 1:  # fio-ref splits on 2 workers, fio-stream never
            assert rule == (min(workers, 2) if f.middle.m == 64 else 1)
        groups.clear()


def test_apply_below_the_cutoff_starts_no_thread(fio_stream_factors,
                                                 monkeypatch, rng):
    # fio-stream's tree: its 64-vector block and its single vectors stay one
    # group, which reads no worker count and reaches no pool or its lock
    def refuse(*args):
        raise AssertionError("the apply reached the pool")

    f = fio_stream_factors
    assert 64 * f.nnz_report().total < 2 * _pool._GROUP_WORK
    assert f.nnz_report().total < 2 * _pool._VECTOR_WORK
    monkeypatch.setattr(_pool, "_executor", refuse)
    monkeypatch.setattr(_pool, "worker_count", refuse)
    for width in (1, 64):
        g = complex_gaussian(rng, (f.n, width))
        assert np.isfinite(f.apply(g)).all()
        assert np.isfinite(f.apply_adjoint(g)).all()

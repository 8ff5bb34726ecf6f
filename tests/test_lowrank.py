import numpy as np
import pytest

from butterfly import (FioKernel, LowRankApprox, lowrank, make_partition,
                       randomized_sampling_svd, randomized_svd, truncated_svd)
from butterfly.lowrank import (DENSE_SIDE_PER_RANK, PIVOT_TIE,
                               PROBE_OVERSAMPLING, SAMPLES_PER_RANK,
                               at_dense_limit, floored_inverse,
                               select_pivot_columns, sketched_svd,
                               svd_from_probes)
from butterfly.oracles import DenseOracle

from conftest import complex_gaussian, prescribed_svd_matrix

SEED_SUITE = range(10)


def dense_apply(z):
    return lambda x, adjoint: (z.conj().T @ x) if adjoint else z @ x


def check_invariants(a: LowRankApprox):
    r = a.rank
    eye = np.eye(r)
    assert np.linalg.norm(a.u0.conj().T @ a.u0 - eye, 2) < 1e-12
    assert np.linalg.norm(a.v0.conj().T @ a.v0 - eye, 2) < 1e-12
    assert np.all(np.diff(a.sigma0) <= 1e-12 * max(a.sigma0[0], 1.0))
    assert np.all(a.sigma0 >= 0)


def test_truncated_svd_zero_matrix():
    a = truncated_svd(np.zeros((8, 8)), 2)
    assert np.array_equal(a.sigma0, [0.0, 0.0])
    check_invariants(a)


def test_truncated_svd_exact_rank_one(rng):
    u = complex_gaussian(rng, (12, 1))
    u /= np.linalg.norm(u)
    v = complex_gaussian(rng, (9, 1))
    v /= np.linalg.norm(v)
    z = 3.0 * u @ v.conj().T
    a = truncated_svd(z, 1)
    assert abs(a.sigma0[0] - 3.0) < 1e-13
    assert np.linalg.norm(z - a.matrix()) <= 1e-14 * 3.0


def test_truncated_svd_prescribed_spectrum(rng):
    sigmas = 10.0 ** -np.arange(16)
    z = prescribed_svd_matrix(rng, 16, 16, sigmas)
    a = truncated_svd(z, 4)
    err = np.linalg.norm(z - a.matrix(), 2)
    assert abs(err - 1e-4) < 1e-12  # optimal error is sigma_5 by construction


@pytest.mark.parametrize("r", [0, 9])
def test_truncated_svd_rank_out_of_range(r):
    with pytest.raises(ValueError):
        truncated_svd(np.eye(8), r)


def test_randomized_svd_zero_operator(rng):
    a = randomized_svd(dense_apply(np.zeros((32, 32))), 32, 32, 3, rng=rng)
    assert np.array_equal(a.sigma0, np.zeros(3))
    check_invariants(a)


def test_randomized_svd_exact_rank(rng):
    z = prescribed_svd_matrix(rng, 32, 32, [2.0, 1.0, 0.5])
    for seed in SEED_SUITE:
        a = randomized_svd(dense_apply(z), 32, 32, 3,
                           rng=np.random.default_rng(seed))
        err = np.linalg.norm(z - a.matrix(), 2) / 2.0
        assert err <= 1e-10
        check_invariants(a)


def test_randomized_svd_width_precondition():
    with pytest.raises(ValueError):
        randomized_svd(dense_apply(np.zeros((8, 8))), 8, 8, 4,
                       rng=np.random.default_rng(0))


def test_randomized_svd_width_boundary(rng):
    # r + PROBE_OVERSAMPLING probes fit exactly into the smaller side
    z = prescribed_svd_matrix(rng, 12, 9, [1.0, 0.5])
    r = 9 - PROBE_OVERSAMPLING
    a = randomized_svd(dense_apply(z), 12, 9, r, rng=np.random.default_rng(0))
    assert np.linalg.norm(z - a.matrix(), 2) <= 1e-10
    with pytest.raises(ValueError, match="exceeds"):
        randomized_svd(dense_apply(z), 12, 9, r + 1,
                       rng=np.random.default_rng(0))


def test_at_dense_limit_threshold():
    # dense exactly while the longer side is at most 32 r: at r=4 the
    # crossover is side 128, so criterion 4's sides 32, 64 and 128 read
    # their blocks whole and criterion 5's side 1024 samples them
    r = 4
    side = 128
    assert DENSE_SIDE_PER_RANK * r == side
    assert at_dense_limit(side, side, r)
    assert at_dense_limit(side - 1, side, r)
    assert not at_dense_limit(side + 1, side, r)
    assert not at_dense_limit(side, side + 1, r)


def _fio_middle_block(n, leaf, i, j):
    p = make_partition(n, leaf)
    ker = FioKernel(n)
    side = p.mid_side
    return ker.block(np.arange(i * side, (i + 1) * side),
                     np.arange(j * side, (j + 1) * side))


def test_randomized_svd_fio_block_close_to_optimal():
    z = _fio_middle_block(256, 16, 1, 2)  # 64 x 64 middle block
    assert z.shape == (64, 64)
    opt = np.linalg.norm(z - truncated_svd(z, 4).matrix(), 2)
    a = randomized_svd(dense_apply(z), 64, 64, 4, rng=np.random.default_rng(3))
    assert np.linalg.norm(z - a.matrix(), 2) <= 10 * opt


def test_sketched_svd_stack_equals_slices_bitwise(rng):
    # the construction passes a block row as a strided view of one oracle
    # call; each slice must match the block compressed alone, bit for bit
    side, m, r = 24, 5, 4
    line = complex_gaussian(rng, (side, m * side))
    blocks = line.reshape(side, m, side).swapaxes(0, 1)
    omega = complex_gaussian(rng, (m, side, r + PROBE_OVERSAMPLING))
    a = sketched_svd(blocks, r, omega)
    for b in range(m):
        one = sketched_svd(np.ascontiguousarray(blocks[b]), r, omega[b])
        assert np.array_equal(a.u0[b], one.u0)
        assert np.array_equal(a.sigma0[b], one.sigma0)
        assert np.array_equal(a.v0[b], one.v0)


@pytest.mark.parametrize("n", [4096, 16384])  # middle sides 64 and 128
def test_sketched_svd_fio_blocks_near_optimal(n):
    r = 4
    rng = np.random.default_rng(11)
    worst = 0.0
    for i, j in ((0, 0), (3, 17), (40, 40), (63, 2)):
        z = _fio_middle_block(n, 1, i, j)
        opt = np.linalg.norm(z - truncated_svd(z, r).matrix(), 2)
        a = sketched_svd(z, r, complex_gaussian(
            rng, (z.shape[1], r + PROBE_OVERSAMPLING)))
        check_invariants(a)
        worst = max(worst, np.linalg.norm(z - a.matrix(), 2) / opt)
    assert worst <= 1.05


def test_sketched_svd_zero_and_exact_rank(rng):
    a = sketched_svd(np.zeros((16, 16)), 2, complex_gaussian(rng, (16, 7)))
    assert np.array_equal(a.sigma0, np.zeros(2))
    check_invariants(a)
    z = prescribed_svd_matrix(rng, 20, 16, [2.0, 1.0, 0.5])
    a = sketched_svd(z, 3, complex_gaussian(rng, (16, 8)))
    assert np.linalg.norm(z - a.matrix(), 2) <= 1e-13


def test_pivot_ties_within_the_window_pick_the_lower_index():
    # column 1 is larger by 1e-14 in norm squared, inside the PIVOT_TIE
    # window; outside it, the larger column wins
    for gap, first in ((0.5 * PIVOT_TIE, 0), (100 * PIVOT_TIE, 1)):
        a = np.diag([1.0, 1.0 + gap])
        assert select_pivot_columns(a, 1) == [first]
        assert select_pivot_columns(a, 2) == [first, 1 - first]


def test_pivot_rel_tol_stops_at_an_exact_rank(rng):
    # by default the sweep stops at an exactly zero residual
    assert select_pivot_columns(np.array([[1.0, 0.0, 1.0],
                                          [0.0, 1.0, 0.0]]), 3) == [0, 1]
    # the downdated squared norms carry noise near machine epsilon, so a
    # rank-3 matrix in floating point stops at a tolerance above its root
    z = prescribed_svd_matrix(rng, 12, 9, [1.0, 0.5, 0.25])
    pivots = select_pivot_columns(z, 9, rel_tol=1e-6)
    assert len(pivots) == 3 == len(set(pivots))
    q, _ = np.linalg.qr(z[:, pivots])
    assert np.linalg.norm(z - q @ (q.conj().T @ z)) <= 1e-12


def test_pivots_of_a_zero_matrix_are_none():
    assert select_pivot_columns(np.zeros((6, 4)), 3) == []
    assert select_pivot_columns(np.zeros((6, 4)), 3, rel_tol=1e-10) == []


def test_pivot_count_is_clipped_to_the_smaller_side(rng):
    a = complex_gaussian(rng, (3, 5))
    assert len(select_pivot_columns(a, 10)) == 3
    assert len(select_pivot_columns(a.T, 10)) == 3


def test_sampling_svd_zero_matrix(rng):
    a = randomized_sampling_svd(DenseOracle(np.zeros((64, 64))).block,
                                64, 64, 4, rng=rng)
    assert np.array_equal(a.sigma0, np.zeros(4))
    check_invariants(a)


def test_sampling_svd_outer_product(rng):
    u = complex_gaussian(rng, 64)
    v = complex_gaussian(rng, 64)
    z = np.outer(u, v.conj())
    a = randomized_sampling_svd(DenseOracle(z).block, 64, 64, 1,
                                rng=np.random.default_rng(1))
    assert np.linalg.norm(z - a.matrix()) / np.linalg.norm(z) <= 1e-10


def test_sampling_svd_fio_block_close_to_optimal():
    z = _fio_middle_block(512, 16, 1, 2)  # 128 x 128 middle block
    assert z.shape == (128, 128)
    opt = np.linalg.norm(z - truncated_svd(z, 8).matrix())
    a = randomized_sampling_svd(DenseOracle(z).block, 128, 128, 8,
                                rng=np.random.default_rng(5))
    assert np.linalg.norm(z - a.matrix()) <= 10 * opt


def test_sampling_svd_exact_rank_all_seeds(rng):
    z = prescribed_svd_matrix(rng, 48, 40, [1.0, 0.3, 0.04])
    for seed in SEED_SUITE:
        a = randomized_sampling_svd(DenseOracle(z).block, 48, 40, 3,
                                    rng=np.random.default_rng(seed))
        assert np.linalg.norm(z - a.matrix(), 2) <= 1e-10


def test_sampling_svd_one_skeleton_sweep(rng, monkeypatch):
    # one sweep (rows, columns), then the least-squares visits: bases from
    # sampled columns and rows.  Each sampled set holds SAMPLES_PER_RANK * r
    # random indices plus at most r skeletons.  The middle's crossing is
    # taken from the final row sample, not read again
    z = prescribed_svd_matrix(rng, 64, 48, [1.0, 0.3, 0.04, 0.01])
    r = 4
    rq = SAMPLES_PER_RANK * r
    visits, samples, middles = [], [], []

    def entry(rows, cols):
        visits.append((len(rows), len(cols)))
        samples.append((rows, cols, z[np.ix_(rows, cols)]))
        return samples[-1][2]

    def assemble(mid, q_col, q_row, r):
        middles.append((mid, q_col, q_row))
        return real_assemble(mid, q_col, q_row, r)

    real_assemble = lowrank._assemble
    monkeypatch.setattr(lowrank, "_assemble", assemble)
    a = randomized_sampling_svd(entry, 64, 48, r,
                                rng=np.random.default_rng(2))
    assert np.linalg.norm(z - a.matrix(), 2) <= 1e-10
    assert len(visits) == 4
    assert visits[0] == (rq, 48)
    assert visits[1][0] == 64 and rq <= visits[1][1] <= rq + r
    assert visits[2][0] == 64 and visits[3][1] == 48
    assert rq <= visits[3][0] <= rq + r
    (_, cols, _), (rows, _, row_sample) = samples[2:]
    (mid, q_col, q_row), = middles
    assert np.array_equal(mid, lowrank.pinv_floored(q_col[rows, :])
                          @ row_sample[:, cols]
                          @ lowrank.pinv_floored(q_row[cols, :].conj().T))


def test_floored_inverse_direct_values():
    assert np.allclose(floored_inverse(np.array([2.0, 1.0])), [0.5, 1.0])
    assert np.array_equal(floored_inverse(np.array([1.0, 0.0])), [1.0, 0.0])
    assert np.array_equal(floored_inverse(np.array([1.0, 1e-14])), [1.0, 0.0])


def test_floored_inverse_floors_each_row_of_a_stack():
    got = floored_inverse(np.array([[1.0, 1e-14], [1e-14, 1e-27]]))
    assert np.array_equal(got, [[1.0, 0.0], [1e14, 0.0]])


def test_truncated_svd_stack_equals_slices_bitwise(rng):
    z = complex_gaussian(rng, (5, 12, 9))
    a = truncated_svd(z, 3)
    for b in range(5):
        s = truncated_svd(z[b], 3)
        assert np.array_equal(a.u0[b], s.u0)
        assert np.array_equal(a.sigma0[b], s.sigma0)
        assert np.array_equal(a.v0[b], s.v0)


def test_svd_from_probes_stack_matches_slices(rng):
    blocks = np.stack([prescribed_svd_matrix(rng, 16, 12, 2.0 ** -np.arange(6))
                       for _ in range(4)])
    width, r = 9, 4
    cols = complex_gaussian(rng, (4, 12, width))
    rows = complex_gaussian(rng, (16, width))  # one row probe, broadcast
    y_col = blocks @ cols
    y_row = blocks.conj().swapaxes(-1, -2) @ rows
    stacked = svd_from_probes(y_col, y_row, rows, r)
    for b in range(4):
        one = svd_from_probes(y_col[b], y_row[b], rows, r)
        for got, want in ((stacked.sigma0[b], one.sigma0),
                          (stacked.matrix()[b], one.matrix())):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        err = np.linalg.norm(blocks[b] - one.matrix(), 2)
        assert err <= 10 * 2.0 ** -r


def test_column_scaling_invariant(rng):
    # construction stores u0 * sigma0: column norms carry the spectrum
    z = prescribed_svd_matrix(rng, 20, 20, [3.0, 1.0, 1e-3, 1e-6])
    a = truncated_svd(z, 4)
    norms = np.linalg.norm(a.u0 * a.sigma0, axis=0)
    assert np.all(np.abs(norms - a.sigma0) <= 1e-12 * np.maximum(a.sigma0, 1e-300))


def test_engines_within_ten_x_on_prescribed_family(rng):
    sigmas = 10.0 ** -np.arange(16)
    z = prescribed_svd_matrix(rng, 16, 16, sigmas)
    r = 4
    opt = 1e-4  # sigma_{r+1} by construction
    for seed in SEED_SUITE:
        a = randomized_svd(dense_apply(z), 16, 16, r,
                           rng=np.random.default_rng(seed))
        assert np.linalg.norm(z - a.matrix(), 2) <= 10 * opt
        b = randomized_sampling_svd(DenseOracle(z).block, 16, 16, r,
                                    rng=np.random.default_rng(seed))
        assert np.linalg.norm(z - b.matrix(), 2) <= 10 * opt


def test_randomized_engines_bit_deterministic(rng):
    z = prescribed_svd_matrix(rng, 32, 32, [1.0, 0.5, 0.25, 0.1])
    for engine in (
        lambda s: randomized_svd(dense_apply(z), 32, 32, 4,
                                 rng=np.random.default_rng(s)),
        lambda s: randomized_sampling_svd(DenseOracle(z).block, 32, 32, 4,
                                          rng=np.random.default_rng(s)),
    ):
        a, b = engine(7), engine(7)
        assert np.array_equal(a.u0, b.u0)
        assert np.array_equal(a.sigma0, b.sigma0)
        assert np.array_equal(a.v0, b.v0)

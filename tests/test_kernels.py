import copy

import numpy as np
import pytest
import scipy.special

from butterfly import (ComposedOperator, DenseOracle, FioKernel,
                       HankelKernel, dense_matrix, dft_apply, factorize,
                       make_partition)
from butterfly.bessel import hankel1_orders

from conftest import complex_gaussian


class DftKernel:
    """Entry oracle of the centered transform F[j, k] = exp(-2*pi*i*xi_j*x_k),
    the reference that ``dft_apply`` is checked against."""

    def __init__(self, n: int):
        self.n = n
        self.shape = (n, n)

    def block(self, rows, cols) -> np.ndarray:
        xi = np.asarray(rows, dtype=float)[:, None] - self.n / 2.0
        x = np.asarray(cols, dtype=float)[None, :] / self.n
        return np.exp(-2j * np.pi * xi * x)


def test_fio_entry_hand_values():
    # x = 0, xi = 0 -> phase 0; x = 0, xi = -2 -> phase c(0)*2 = 0.5
    block = FioKernel(4).block([0], [2, 0])
    assert block[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert block[0, 1] == pytest.approx(-1.0, abs=1e-14)


@pytest.mark.parametrize("n", [512, 1024])
def test_fio_block_matches_complex_exponential(n):
    # filled from cos and sin of the real phase; equality to the last bit
    # depends on libm, so agreement is checked to 1e-15
    x = np.arange(n, dtype=float)[:, None] / n
    xi = np.arange(n, dtype=float)[None, :] - n / 2.0
    c = (2.0 + np.sin(2.0 * np.pi * x)) / 8.0
    want = np.exp(2j * np.pi * (x * xi + c * np.abs(xi)))
    got = FioKernel(n).block(np.arange(n), np.arange(n))
    assert got.dtype == np.complex128 and got.shape == (n, n)
    assert np.abs(got - want).max() <= 1e-15


def test_fio_unimodular(rng):
    n = 1024
    ker = FioKernel(n)
    rows = rng.integers(0, n, size=1000)
    cols = rng.integers(0, n, size=1000)
    vals = np.array([ker.block([i], [j])[0, 0] for i, j in zip(rows[:50], cols[:50])])
    assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-15
    block = ker.block(rows[:40], cols[:40])
    assert np.max(np.abs(np.abs(block) - 1.0)) <= 1e-15


def test_hankel_entry_matches_oracle():
    x = 64 + (2 * np.pi / 3) * 3
    want = scipy.special.hankel1(5, x)
    got = hankel1_orders(np.array([x]), [5])[0, 0]
    assert abs(got - want) <= 1e-12 * abs(want)
    assert got == HankelKernel(64).block([3], [5])[0, 0]


def test_hankel_block_is_finite_and_repeatable():
    ker = HankelKernel(64)
    block = ker.block(np.arange(0, 64, 7), np.arange(0, 64, 5))
    assert np.all(np.isfinite(block))
    again = ker.block(np.arange(0, 64, 7), np.arange(0, 64, 5))
    assert np.array_equal(block, again)


def test_hankel_factorize_leaves_the_oracle_unchanged():
    # the oracle is pure: a factorization must not leave state behind
    n = 128
    ker = HankelKernel(n)
    before = copy.deepcopy(vars(ker))
    factorize(ker, make_partition(n, 1), 4, seed=3)
    assert vars(ker) == before


def test_dense_matrix_identity_oracle():
    assert np.array_equal(dense_matrix(DenseOracle(np.eye(6)), 6), np.eye(6))


def test_dense_matrix_unimodular_fio():
    k = dense_matrix(FioKernel(64), 64)
    assert np.max(np.abs(np.abs(k) - 1.0)) <= 1e-14


def test_dense_matrix_cap():
    with pytest.raises(ValueError):
        dense_matrix(FioKernel(8192), 8192)


def test_dft_basis_vector():
    g = np.zeros(4, dtype=complex)
    g[0] = 1.0
    assert np.allclose(dft_apply(4, g), np.ones(4), atol=1e-15)


def test_dft_round_trip(rng):
    g = complex_gaussian(rng, 256)
    back = dft_apply(256, dft_apply(256, g), "inverse")
    assert np.linalg.norm(back - g) <= 1e-12 * np.linalg.norm(g)


def test_dft_matches_entry_oracle(rng):
    n = 64
    f = dense_matrix(DftKernel(n), n)
    g = complex_gaussian(rng, n)
    assert np.linalg.norm(dft_apply(n, g) - f @ g) <= 1e-12 * np.linalg.norm(f @ g)


def test_dft_rejects_bad_direction():
    with pytest.raises(ValueError):
        dft_apply(8, np.zeros(8), "sideways")


@pytest.fixture(scope="module")
def composed_256():
    n = 256
    p = make_partition(n, 1)  # rank 12 needs middle blocks at least 12 wide
    inner = factorize(FioKernel(n), p, 12, seed=0)
    return ComposedOperator(inner)


def test_composed_zero(composed_256):
    out = composed_256.apply(np.zeros(256, dtype=complex))
    assert np.array_equal(out, np.zeros(256, dtype=complex))


def test_composed_against_dense_triple(composed_256, rng):
    n = 256
    k = dense_matrix(FioKernel(n), n)
    f = dense_matrix(DftKernel(n), n)
    chain = k @ f @ k
    g = complex_gaussian(rng, n)
    want = chain @ g
    got = composed_256.apply(g)
    assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


def test_composed_adjoint_identity(composed_256, rng):
    x = complex_gaussian(rng, 256)
    y = complex_gaussian(rng, 256)
    lhs = np.vdot(y, composed_256.apply(x))
    rhs = np.vdot(composed_256.apply_adjoint(y), x)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_dense_oracle_roundtrip(rng):
    k = complex_gaussian(rng, (8, 8))
    oracle = DenseOracle(k)
    assert np.array_equal(oracle.block(np.arange(8), np.arange(8)), k)
    x = complex_gaussian(rng, 8)
    assert np.allclose(oracle.apply_adjoint(x), k.conj().T @ x)

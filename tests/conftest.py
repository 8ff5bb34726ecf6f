import numpy as np
import pytest

from butterfly import FioKernel, _pool, factorize, make_partition
from butterfly.factors import (ButterflyFactors, MiddleFactor, TransferFactor,
                               chain_geometry)


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def prescribed_svd_matrix(rng, m, n, sigmas):
    """Dense matrix with exactly the given singular values (its own oracle)."""
    u, _ = np.linalg.qr(complex_gaussian(rng, (m, len(sigmas))))
    v, _ = np.linalg.qr(complex_gaussian(rng, (n, len(sigmas))))
    return (u * np.asarray(sigmas)) @ v.conj().T


def random_exact_chain(p, r, rng) -> ButterflyFactors:
    """Random chain with orthonormal-row transfer blocks: every block of the
    resulting dense matrix has exact rank <= r and decent conditioning.

    Every level carries rank r, also where its nodes hold fewer than r rows
    and a factorization would keep less; the layout accepts any k_out.
    """

    def orth_rows(shape):
        a = complex_gaussian(rng, shape)
        flat = a.reshape(-1, *shape[-2:])
        q, _ = np.linalg.qr(flat.swapaxes(-1, -2))
        return np.ascontiguousarray(q.swapaxes(-1, -2).reshape(shape))

    *geometry, (leaf, (nodes, _, _, rows, _)) = chain_geometry(p, r)
    shapes = [(lvl, (*shape[:3], r, 2 * r)) for lvl, shape in geometry]
    leaf_shape = (nodes, 1, 1, rows, r)
    u_outer = TransferFactor(leaf, orth_rows(leaf_shape).conj())
    v_outer = TransferFactor(leaf, orth_rows(leaf_shape).conj())
    g_chain = tuple(TransferFactor(lvl, orth_rows(shape))
                    for lvl, shape in shapes)
    h_chain = tuple(TransferFactor(lvl, orth_rows(shape))
                    for lvl, shape in shapes)
    weights = rng.uniform(0.5, 1.5, size=(p.mid_nodes, p.mid_nodes, r))
    return ButterflyFactors(p, r, u_outer, g_chain, MiddleFactor(weights),
                            h_chain, v_outer)


def use_workers(monkeypatch, workers):
    """Size every construction and apply pool to ``workers`` threads."""
    monkeypatch.setattr(_pool, "worker_count", lambda: workers)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture(scope="session")
def fio_ref_factors():
    """fio-ref's chain: 1.78 M stored entries on 64 middle nodes."""
    n = 1024
    return factorize(FioKernel(n), make_partition(n, 0.25), 8, seed=0)


@pytest.fixture(scope="session")
def fio_stream_factors():
    """fio-stream's chain: 0.11 M stored entries on 16 middle nodes."""
    n = 512
    return factorize(FioKernel(n), make_partition(n, 1), 6, seed=0)

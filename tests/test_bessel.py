import tracemalloc

import numpy as np
import pytest
import scipy.special

from butterfly import HankelKernel
from butterfly.bessel import _h1_seed, hankel1_orders

# mpmath.hankel1(0, 4) at 30 digits, computed before the build
H1_0_AT_4 = -0.397149809863847372286590768452 - 0.0169407393250649919036351344472j


def test_hankel_small_argument_frozen_value():
    got = hankel1_orders(np.array([4.0]), [0])[0, 0]
    assert abs(got - H1_0_AT_4) <= 1e-10


def test_hankel_leading_asymptotics():
    got = abs(hankel1_orders(np.array([1e4]), [0])[0, 0])
    want = np.sqrt(2.0 / (np.pi * 1e4))
    assert abs(got - want) / want <= 1e-4


def test_wronskian_identity():
    rng = np.random.default_rng(5)
    n = 1024
    xs = n + (2 * np.pi / 3) * rng.integers(0, n, size=100)
    orders = rng.integers(0, n - 1, size=100)
    h = hankel1_orders(np.unique(xs), np.arange(n))
    js, ys = h.real, h.imag
    lookup = {x: k for k, x in enumerate(np.unique(xs))}
    for x, m in zip(xs, orders):
        k = lookup[x]
        w = js[k, m + 1] * ys[k, m] - js[k, m] * ys[k, m + 1]
        want = 2.0 / (np.pi * x)
        assert abs(w - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("order, j, y", [
    (0, scipy.special.j0, scipy.special.y0),
    (1, scipy.special.j1, scipy.special.y1)])
def test_seeds_against_independent_oracle(order, j, y):
    xs = np.concatenate([np.linspace(0.05, 5.0, 311),
                         np.linspace(5.001, 2e4, 311)])
    got = _h1_seed(xs, order)
    for mine, want in ((got.real, j(xs)), (got.imag, y(xs))):
        assert (np.max(np.abs(mine - want) / np.maximum(np.abs(want), 1e-3))
                <= 1e-13)


@pytest.mark.parametrize("order", [0, 1])
def test_a_seed_batch_across_both_branches_equals_its_points(order):
    # x < 1e-5 (order 0 has its own formula there), the rational branch up
    # to and at x = 5, and the asymptotic branch above it, interleaved so
    # the two branch masks must put every value back in its place
    xs = np.array([7.5, 3e-6, 5.0, 0.3, 1e4, 4.999, 5.001, 1e-9, 2.0, 60.0])
    batch = _h1_seed(xs, order)
    points = np.array([_h1_seed(xs[k:k + 1], order)[0]
                       for k in range(xs.size)])
    assert batch.tobytes() == points.tobytes()


def test_order_sweep_against_independent_oracle():
    n = 256
    x = n + (2 * np.pi / 3) * np.arange(0, n, 37, dtype=float)
    orders = np.arange(n)
    got = hankel1_orders(x, orders)
    want = (scipy.special.jv(orders[None, :], x[:, None])
            + 1j * scipy.special.yv(orders[None, :], x[:, None]))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


def test_sweep_rejects_nonpositive():
    with pytest.raises(ValueError):
        hankel1_orders(np.array([0.0]), np.arange(4))


@pytest.mark.parametrize("x, orders", [([100.0, 50.0], [0, 50]),
                                       ([100.0, 49.5], [50, 3]), ([1.0], [1]),
                                       ([-3.0], [0]), ([100.0], [2, -1])])
def test_orders_reject_points_at_or_below_an_order(x, orders):
    # the upward recurrence is only stable below the turning point and
    # starts at order 0
    with pytest.raises(ValueError):
        hankel1_orders(np.array(x), orders)


def test_orders_are_bit_equal_across_batches():
    n = 512
    rng = np.random.default_rng(11)
    x = n + (2 * np.pi / 3) * rng.permutation(n)[:48].astype(float)
    every = np.arange(n)
    full = hankel1_orders(x, every)
    assert np.array_equal(hankel1_orders(x[:16], every), full[:16])
    assert np.array_equal(hankel1_orders(x[40:], every), full[40:])
    for k in (0, 1, 37, n - 2):
        assert np.array_equal(hankel1_orders(x, every[:k + 1]),
                              full[:, :k + 1])
    # any subset of orders, unsorted and with repeats, picks the same columns
    for orders in ([n - 1], [5, 300, 301], [300, 5, 17, 0],
                   [7, 7, 2, 7, 0, 2], rng.integers(0, n, size=40)):
        assert np.array_equal(hankel1_orders(x, orders), full[:, orders])
    assert hankel1_orders(x, []).shape == (48, 0)


def test_orders_take_the_memory_of_their_output():
    # all rows of an n=1024 kernel at its 16 top columns: the recurrence
    # holds two orders per row besides the requested ones, not a table
    # of every order up to the largest
    n, cols = 1024, np.arange(1008, 1024)
    ker = HankelKernel(n)
    tracemalloc.start()
    try:
        out = ker.block(np.arange(n), cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n, cols.size)
    assert peak < 8 * out.nbytes


def test_turning_point_against_independent_oracle():
    # row x = n meets order n - 1 where the recurrence has run longest
    n = 4096
    got = hankel1_orders(np.array([float(n)]), [n - 1])[0, 0]
    want = scipy.special.hankel1(n - 1, float(n))
    assert abs(got - want) <= 1e-10 * abs(want)

import numpy as np
import pytest

from butterfly import make_partition


def test_make_partition_picks_deepest_even_depth():
    p = make_partition(64, 2)
    assert (p.levels, p.n >> p.levels, p.half) == (4, 4, 2)


def test_make_partition_integer_leaf_target():
    p = make_partition(1024, 16)
    assert (p.levels, p.n >> p.levels, p.half) == (6, 16, 3)
    assert p.mid_nodes == 8


def test_make_partition_rejects_odd_factor_sizes():
    with pytest.raises(ValueError, match="admissible"):
        make_partition(48, 2)


def test_make_partition_fractional_leaf_goes_past_single_indices():
    p = make_partition(1024, 0.25)
    assert p.levels == 12
    assert p.n / 2 ** p.levels == 0.25
    assert p.mid_side == 16


@pytest.mark.parametrize("bad", [0, -4, 3, 20, 1000])
def test_make_partition_rejects_non_powers_of_two(bad):
    with pytest.raises(ValueError):
        make_partition(bad, 2)


@pytest.mark.parametrize("leaf", [np.inf, np.nan, -np.inf, 0])
def test_make_partition_rejects_non_finite_leaves(leaf):
    with pytest.raises(ValueError, match="target_leaf must be positive and "
                                         "finite"):
        make_partition(64, leaf)


@pytest.mark.parametrize("n, leaf, lo", [(256, 100, 512), (16, 5, 32),
                                         (64, 64, 256), (4, 1.5, 8),
                                         (8, 0.75 * 2 ** 10, 4096)])
def test_make_partition_names_the_smallest_admissible_n(n, leaf, lo):
    # the smallest power of two >= max(4, 4 * leaf) has a depth-2 tree
    with pytest.raises(ValueError, match=f"admissible n start at {lo}$"):
        make_partition(n, leaf)
    assert make_partition(lo, leaf).levels == 2
    assert lo // 2 < 4 * leaf


def test_make_partition_takes_numpy_integers():
    p = make_partition(np.int64(1024), 0.25)
    assert p == make_partition(1024, 0.25) and type(p.n) is int


@pytest.mark.parametrize("bad", [1024.0, np.float64(64), "64"])
def test_make_partition_rejects_non_integers(bad):
    with pytest.raises(ValueError, match="n must be an integer"):
        make_partition(bad, 0.25)


def test_midlevel_identities():
    for n, leaf in [(64, 1), (256, 16), (1024, 0.25)]:
        p = make_partition(n, leaf)
        assert p.half * 2 == p.levels
        assert p.mid_nodes ** 2 == 2 ** p.levels


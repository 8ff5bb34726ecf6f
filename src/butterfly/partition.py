"""Dyadic index trees over {0, ..., n-1} and the block algebra built on them.

A partition fixes an even tree depth ``levels`` shared by the row tree and
the column tree.  Level ``lvl`` of the row tree has ``2**lvl`` nodes; node
``i`` covers the index range ``[i*n/2**lvl, (i+1)*n/2**lvl)``.  The depth may
exceed ``log2(n)``: below the single-index level rows split no further and a
level only merges column groups (:func:`butterfly.factors.chain_geometry`),
which is what lets the middle level sit deeper than ``sqrt(n)`` blocks and is
how the reference accuracies are reached.  Block ``(lvl, i, j)`` pairs row
node ``i`` at level ``lvl`` with column node ``j`` at level ``levels - lvl``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class DyadicPartition:
    """Shared row/column tree geometry for one n-by-n operator."""

    n: int
    levels: int

    def __post_init__(self):
        n, levels = self.n, self.levels
        if n < 4 or n & (n - 1):
            raise ValueError(f"matrix dimension must be a power of two >= 4, got {n}")
        if levels < 2 or levels % 2:
            raise ValueError(f"tree depth must be even and >= 2, got {levels}")
        if 2 ** (levels // 2) > n:
            raise ValueError(
                f"depth {levels} puts more than {n} nodes on the middle level"
            )

    @property
    def half(self) -> int:
        return self.levels // 2

    @property
    def mid_nodes(self) -> int:
        """Number of nodes per side at the middle level (m = 2**half)."""
        return 2 ** self.half

    @property
    def mid_side(self) -> int:
        """Row/column count of one middle-level block."""
        return self.n // self.mid_nodes


def make_partition(n, target_leaf) -> DyadicPartition:
    """Build the deepest even-depth partition whose leaves hold >= target_leaf.

    ``target_leaf`` may be fractional; e.g. 0.25 yields the depth
    ``log2(n) + 2`` trees used for the reference accuracy experiments, while
    integer targets keep every leaf at one index or more.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, got {n!r}") from None
    if n < 4 or n & (n - 1):
        lo = 2 ** max(2, n.bit_length() - 1)
        raise ValueError(
            f"n={n} admits no dyadic decomposition; nearest admissible sizes "
            f"are powers of two such as {lo} and {2 * lo}"
        )
    if not 0 < target_leaf < math.inf:
        raise ValueError(f"target_leaf must be positive and finite, got "
                         f"{target_leaf}")
    levels = -1
    for cand in range(2, 2 * (n.bit_length() - 1) + 1, 2):
        if n / 2 ** cand >= target_leaf:
            levels = cand
    if levels < 0:
        lo = 2 ** max(2, math.ceil(math.log2(4 * target_leaf)))
        raise ValueError(
            f"no even depth >= 2 leaves at least {target_leaf} indices per "
            f"leaf for n={n}; admissible n start at {lo}"
        )
    return DyadicPartition(n, levels)

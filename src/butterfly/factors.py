"""Sparse factor chain storage and its fast application.

A factorization of an n-by-n operator K is the product

    U G(L-1) ... G(h) M H(h)* ... H(L-1)* V*

held here as structured block arrays rather than generic sparse matrices:
every block at one level has the same shape, and a transfer level keeps
the t blocks fed by one input pair together, so either direction of a level
is one matmul call.  Each level keeps only the rank its nodes can carry,
min(r, rows per node), so the arrays hold no zero padding;
:func:`chain_geometry` is the one place that fixes those shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partition import DyadicPartition


def chain_geometry(p: DyadicPartition, r: int):
    """Block shapes of one side of the chain for middle rank ``r``.

    Returns ``[(level, (nodes, pairs, t, k_out, 2*k_in))]`` for the transfer
    levels half .. levels-1 in ascending order, then the leaf at level
    ``levels`` as ``(nodes, 1, 1, rows, k)``.  A level splits each node's
    rows in two (t = 2) until nodes hold a single index, then only merges
    column groups (t = 1); it keeps k_out = min(r, rows per output node).
    """
    shapes = []
    nodes, rows, k = p.mid_nodes, p.mid_side, r
    for lvl in range(p.half, p.levels):
        t = 2 if rows >= 2 else 1
        rows //= t
        k_out = min(r, rows)
        shapes.append((lvl, (nodes, 2 ** (p.levels - lvl - 1), t, k_out, 2 * k)))
        nodes, k = nodes * t, k_out
    return shapes + [(p.levels, (nodes, 1, 1, rows, k))]


def _take(buf, shape) -> np.ndarray:
    """``shape`` at the head of a factor method's flat complex128 ``out`` or
    ``work`` buffer, or a fresh array without one: the same bits either way."""
    if buf is None:
        return np.empty(shape, dtype=np.complex128)
    return buf[:math.prod(shape)].reshape(shape)


@dataclass(frozen=True)
class TransferFactor:
    """One level of the recursive chain: k_out x 2k_in blocks merging pairs
    of sibling column groups.

    ``blocks`` is (nodes, pairs, t, k_out, 2*k_in).  Input node i holds
    ``pairs`` pairs of k_in-wide column groups; block [i, j, s] maps pair j
    of node i to the rank-k_out group j of output node t*i + s.  Either
    direction is one matmul: ``forward`` writes every product straight into
    its output node, ``adjoint`` sums over s inside the matmul.  With
    t = pairs = 1 it is block diagonal: the leaf U or V, or the middle-level
    U or V before it is refactored.
    """

    level: int
    blocks: np.ndarray

    @property
    def nnz(self) -> int:
        return self.blocks.size

    @property
    def shape(self):
        nodes, pairs, t, k_out, two_k = self.blocks.shape
        return (nodes * t * pairs * k_out, nodes * pairs * two_k)

    def dense(self) -> np.ndarray:
        return self.forward(np.eye(self.shape[1], dtype=complex))

    def forward(self, w: np.ndarray, out=None) -> np.ndarray:
        nodes, pairs, t, k_out, two_k = self.blocks.shape
        nv = w.shape[-1]
        res = _take(out, (nodes, t, pairs, k_out, nv))
        np.matmul(self.blocks, w.reshape(nodes, pairs, 1, two_k, nv),
                  out=res.swapaxes(1, 2))
        return res.reshape(-1, nv)

    def adjoint(self, w: np.ndarray, out=None, work=None) -> np.ndarray:
        """sum_s blocks[:, :, s]* @ w[:, s]: one matmul per pair on its t
        input groups, gathered into ``work`` first, so ``out`` may hold ``w``.

        One vector is conjugated instead of the blocks, B* w =
        conj(B^T conj(w)), so a single-vector apply copies no factor; a
        wider block conjugates the factor once rather than every vector.
        """
        nodes, pairs, t, k_out, two_k = self.blocks.shape
        nv = w.shape[-1]
        one = nv == 1
        win = w.reshape(nodes, t, pairs, k_out, nv).swapaxes(1, 2)
        gathered = _take(work, win.shape)
        gathered[...] = win.conj() if one else win
        stack = self.blocks.reshape(nodes, pairs, t * k_out, two_k)
        bt = (stack if one else stack.conj()).swapaxes(-1, -2)
        res = _take(out, (nodes, pairs, two_k, nv))
        np.matmul(bt, gathered.reshape(nodes, pairs, t * k_out, nv), out=res)
        if one:
            np.conjugate(res, out=res)
        return res.reshape(-1, nv)


@dataclass(frozen=True)
class MiddleFactor:
    """Weighted block permutation: weights[i, j] on the (j, i) slot of M[i, j]."""

    weights: np.ndarray  # (m, m, r) real, nonnegative

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def rank(self) -> int:
        return self.weights.shape[2]

    @property
    def nnz(self) -> int:
        return self.weights.size

    @property
    def shape(self):
        n = self.m * self.m * self.rank
        return (n, n)

    def dense(self) -> np.ndarray:
        return self.forward(np.eye(self.shape[1], dtype=complex))

    def forward(self, w: np.ndarray, out=None) -> np.ndarray:
        win = w.reshape(self.m, self.m, self.rank, -1)
        res = _take(out, win.shape)
        np.multiply(self.weights[..., None], win.swapaxes(0, 1), out=res)
        return res.reshape(-1, win.shape[-1])

    def adjoint(self, w: np.ndarray, out=None) -> np.ndarray:
        win = w.reshape(self.m, self.m, self.rank, -1)
        res = _take(out, win.shape)
        np.multiply(self.weights[..., None], win, out=res.swapaxes(0, 1))
        return res.reshape(-1, win.shape[-1])


@dataclass(frozen=True)
class ButterflyFactors:
    """Complete factor chain plus the partition geometry it lives on."""

    partition: DyadicPartition
    rank: int
    u_outer: TransferFactor  # leaf, level ``levels``
    g_chain: tuple  # TransferFactor, levels half .. levels-1 ascending
    middle: MiddleFactor
    h_chain: tuple  # same layout, column side
    v_outer: TransferFactor

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def sides(self):
        """The sparse factors of each side in ascending level order, leaf
        last: ``((*g_chain, u_outer), (*h_chain, v_outer))``."""
        return (*self.g_chain, self.u_outer), (*self.h_chain, self.v_outer)

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Evaluate K @ g through the sparse chain in O(n log n)."""
        return self._chain(g, adjoint=False)

    def apply_adjoint(self, g: np.ndarray) -> np.ndarray:
        """Evaluate K* @ g (conjugate-transposed chain, reversed)."""
        return self._chain(g, adjoint=True)

    def _chain(self, g: np.ndarray, adjoint: bool) -> np.ndarray:
        g = np.asarray(g)
        vec = g.ndim == 1
        if g.shape[0] != self.n:
            raise ValueError(f"input length {g.shape[0]} != {self.n}")
        w = g.reshape(self.n, -1).astype(np.complex128, copy=False)
        if not np.isfinite(w).all():
            row = int(np.argmin(np.isfinite(w).all(axis=1)))
            raise ValueError(f"input row {row} holds NaN or inf")
        left, right = self.sides[::-1] if adjoint else self.sides
        middle = self.middle.adjoint if adjoint else self.middle.forward
        # Two buffers of the widest level: an adjoint gathers a into b and
        # writes back over a, the middle and each forward write into the
        # other one, and the last factor allocates the result.
        size = w.shape[1] * max(max(f.shape) for f in (*left, *right, self.middle))
        a, b = np.empty(size, np.complex128), np.empty(size, np.complex128)
        for tf in reversed(right):
            w = tf.adjoint(w, out=a, work=b)
        for op in (middle, *(tf.forward for tf in left[:-1])):
            w = op(w, out=b)
            a, b = b, a
        w = left[-1].forward(w)
        return w[:, 0] if vec else w

    def dense(self) -> np.ndarray:
        """Materialize the factored operator (tests and verify only)."""
        n, chunk = self.n, 512
        out = np.empty((n, n), dtype=np.complex128)
        eye = np.eye(n, dtype=np.complex128)
        for c0 in range(0, n, chunk):
            out[:, c0:c0 + chunk] = self.apply(eye[:, c0:c0 + chunk])
        return out

    def nnz_report(self) -> "NnzReport":
        return NnzReport(
            u_outer=self.u_outer.nnz,
            g={tf.level: tf.nnz for tf in self.g_chain},
            middle=self.middle.nnz,
            h={tf.level: tf.nnz for tf in self.h_chain},
            v_outer=self.v_outer.nnz,
        )


@dataclass(frozen=True)
class NnzReport:
    """Stored-entry counts per factor of one chain."""

    u_outer: int
    g: dict
    middle: int
    h: dict
    v_outer: int

    @property
    def total(self) -> int:
        return (self.u_outer + self.v_outer + self.middle
                + sum(self.g.values()) + sum(self.h.values()))


def factors_equal(a: ButterflyFactors, b: ButterflyFactors) -> bool:
    """Bit-exact equality of two chains (same partition, same arrays)."""
    if a.partition != b.partition or a.rank != b.rank:
        return False
    if len(a.g_chain) != len(b.g_chain) or len(a.h_chain) != len(b.h_chain):
        return False
    pairs = [(a.middle.weights, b.middle.weights)]
    pairs += [(x.blocks, y.blocks)
              for sa, sb in zip(a.sides, b.sides) for x, y in zip(sa, sb)]
    return all(x.shape == y.shape and np.array_equal(x, y) for x, y in pairs)

"""Sparse factor chain storage and its fast application.

A factorization of an n-by-n operator K is the product

    U G(L-1) ... G(h) M H(h)* ... H(L-1)* V*

held here as structured block arrays rather than generic sparse matrices:
every block at one level has the same shape, and a transfer level keeps
the t blocks fed by one input pair together, so either direction of a level
is one matmul call.  Each level keeps only the rank its nodes can carry,
min(r, rows per node), so the arrays hold no zero padding;
:func:`chain_geometry` is the one place that fixes those shapes.

Each side of the chain is a tree rooted at the m middle nodes: a group of
middle nodes owns the same share of every level's blocks and of its input
and output rows, and an apply walks the chain group by group.  One group,
a single vector through a chain of under 1.6 M stored entries or a small
block, runs on the calling thread; more, up to one per worker for a single
vector through a larger chain and up to four per worker for a large block
(:func:`butterfly._pool.spans`), run side by side on the process's kept
pool, which construction shares.  Each block meets the same matmul call
either way, so the output is bit-identical for any group or CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pool
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


def materialize(apply_fn, n: int) -> np.ndarray:
    """The n x n matrix of ``apply_fn``, fed 512 identity columns a call."""
    out = np.empty((n, n), dtype=np.complex128)
    for c0 in range(0, n, 512):
        out[:, c0:c0 + 512] = apply_fn(
            np.eye(n, min(512, n - c0), -c0, dtype=np.complex128))
    return out


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
    U or V before it is refactored.  Given input nodes ``nodes``, either
    direction reads only their rows and writes those of the nodes they feed.
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

    def forward(self, w: np.ndarray, out=None, nodes=None) -> np.ndarray:
        blocks = self.blocks if nodes is None else self.blocks[nodes]
        nb, pairs, t, k_out, two_k = blocks.shape
        nv = w.shape[-1]
        res = _take(out, (nb, t, pairs, k_out, nv))
        np.matmul(blocks, w.reshape(nb, pairs, 1, two_k, nv),
                  out=res.swapaxes(1, 2))
        return res.reshape(-1, nv)

    def transpose(self, w: np.ndarray, out=None, work=None, nodes=None,
                  conj: bool = False) -> np.ndarray:
        """B^T w, or B^T conj(w) with ``conj``: sum_s blocks[:, :, s]^T @
        w[:, s], one matmul per pair on its t input groups, gathered into
        ``work`` first (conjugated with ``conj``), so ``out`` may hold ``w``."""
        blocks = self.blocks if nodes is None else self.blocks[nodes]
        nb, pairs, t, k_out, two_k = blocks.shape
        nv = w.shape[-1]
        win = w.reshape(nb, t, pairs, k_out, nv).swapaxes(1, 2)
        gathered = _take(work, win.shape)
        if conj:
            np.conjugate(win, out=gathered)
        else:
            np.copyto(gathered, win)
        bt = blocks.reshape(nb, pairs, t * k_out, two_k).swapaxes(-1, -2)
        res = _take(out, (nb, pairs, two_k, nv))
        np.matmul(bt, gathered.reshape(nb, pairs, t * k_out, nv), out=res)
        return res.reshape(-1, nv)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """B* w.

        The vectors are conjugated instead of the blocks, B* w =
        conj(B^T conj(w)): the gather conjugates and the result is
        conjugated in place, so no call copies the factor.
        """
        res = self.transpose(w, conj=True)
        return np.conjugate(res, out=res)


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

    def forward(self, w: np.ndarray, out=None,
                nodes=slice(None)) -> np.ndarray:
        """M w, or only its block rows ``nodes``, which read every block
        row of ``w``."""
        win = w.reshape(self.m, self.m, self.rank, -1)
        weights = self.weights[nodes]
        res = _take(out, (*weights.shape, win.shape[-1]))
        np.multiply(weights[..., None], win[:, nodes].swapaxes(0, 1), out=res)
        return res.reshape(-1, win.shape[-1])

    def adjoint(self, w: np.ndarray, out=None,
                nodes=slice(None)) -> np.ndarray:
        """M* w, or only its block rows ``nodes``, as in :meth:`forward`."""
        win = w.reshape(self.m, self.m, self.rank, -1)
        weights = self.weights[:, nodes]
        res = _take(out, (weights.shape[1], self.m, *win.shape[2:]))
        np.multiply(weights[..., None], win[:, nodes], out=res.swapaxes(0, 1))
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

    def __post_init__(self):
        # the stored entries, which size the work of every apply, and the
        # longest input or output of any factor, which sizes its buffers
        object.__setattr__(self, "_stored", self.nnz_report().total)
        object.__setattr__(self, "_widest", max(
            max(f.shape) for f in (*self.sides[0], *self.sides[1],
                                   self.middle)))

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
        """The chain as subtrees of the middle nodes: each group [lo, hi)
        of :func:`butterfly._pool.spans` owns blocks [lo * s, hi * s) of
        every level of s * m nodes and their rows, so every block meets the
        same matmul call for any grouping.  A group runs its share of the
        right side into its rows of the middle's input, as B^T on the
        conjugated input, conjugated once at the end: exactly B* w level by
        level without conjugating every level's output.  Then its rows of the
        middle, which read every row, and its share of the left side, in two
        buffers of its share of the widest level.  One group runs on the
        calling thread, its middle input a view of its first buffer and its
        result allocated by the last factor; more run as two pool rounds
        into a shared middle input and result.
        """
        g = np.asarray(g)
        if g.ndim not in (1, 2):
            raise ValueError(f"input of shape {g.shape}: expected a vector "
                             f"or an (n, k) block")
        if g.shape[0] != self.n:
            raise ValueError(f"input length {g.shape[0]} != {self.n}")
        vec = g.ndim == 1
        w = (g[:, None] if vec else g).astype(np.complex128, copy=False)
        if not w.shape[1]:
            return np.empty((self.n, 0), dtype=np.complex128)
        if not np.isfinite(w).all():
            row = int(np.argmin(np.isfinite(w).all(axis=1)))
            raise ValueError(f"input row {row} holds NaN or inf")
        left, right = self.sides[::-1] if adjoint else self.sides
        middle = self.middle.adjoint if adjoint else self.middle.forward
        m, nv = self.middle.m, w.shape[1]
        spans = _pool.spans(m, self._stored, nv)

        def rows(x, lo, hi):
            return slice(lo * len(x) // m, hi * len(x) // m)

        def nodes(tf, lo, hi):  # one group takes whole factors: no view a call
            return None if held else rows(tf.blocks, lo, hi)

        def buffers(lo, hi):
            a = np.empty(nv * (self._widest * (hi - lo) // m), np.complex128)
            return a, np.empty_like(a)

        held = buffers(0, m) if len(spans) == 1 else None
        mid = _take(held[0] if held else None, (self.middle.shape[0] * nv,))
        res = None if held else np.empty((self.n, nv), np.complex128)

        def right_side(lo, hi):
            a, b = held or buffers(lo, hi)
            x = w[rows(w, lo, hi)]
            for tf in right[::-1]:  # the last one into the middle's input
                out = mid[rows(mid, lo, hi)] if tf is right[0] else a
                x = tf.transpose(x, out=out, work=b, nodes=nodes(tf, lo, hi),
                                 conj=tf is right[-1])
            np.conjugate(x, out=x)

        def left_side(lo, hi):
            a, b = held or buffers(lo, hi)
            *first, last = left
            x = middle(mid, out=b, nodes=slice(lo, hi))
            for tf in first:
                x = tf.forward(x, out=a, nodes=nodes(tf, lo, hi))
                a, b = b, a
            out = None if held else res[rows(res, lo, hi)].reshape(-1)
            return last.forward(x, out=out, nodes=nodes(last, lo, hi))

        if held:
            right_side(0, m)
            res = left_side(0, m)
        else:
            _pool.in_pool((right_side, spans), (left_side, spans))
        return res[:, 0] if vec else res

    def dense(self) -> np.ndarray:
        """Materialize the factored operator (tests and verify only)."""
        return materialize(self.apply, self.n)

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
    """Bit-exact equality of two chains: same partition, same array bytes."""
    if a.partition != b.partition or a.rank != b.rank:
        return False
    if len(a.g_chain) != len(b.g_chain) or len(a.h_chain) != len(b.h_chain):
        return False
    pairs = [(a.middle.weights, b.middle.weights)]
    pairs += [(x.blocks, y.blocks)
              for sa, sb in zip(a.sides, b.sides) for x, y in zip(sa, sb)]
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in pairs)

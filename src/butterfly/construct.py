"""Two-stage construction of the sparse factor chain.

Stage one compresses every middle-level block to rank r, from sampled
entries or from applications of the operator, into block-diagonal left and
right factors and a weighted permutation.  It works by block line: one
reader, :func:`_dense_lines`, turns the blocks of a block row, or of a run
of one (of a block column, for the streaming right side), into stacks of
rank-r triples, and one placer, :func:`_place_line`, writes them.  Every
oracle application (a line, a run of one, a block, an engine sample or a
product of K or K*) is one :func:`_checked` call: it names what it read if
the call fails or returns another shape, and the first non-finite block of
K otherwise (found by :func:`_locate` where a product spreads it).

* dense lines (entry oracle at the dense limit or ``whole_rows``, operator
  oracle on narrow blocks, :func:`_narrow`) -- :data:`CALL_WIDTH` rows of
  K a call (whole block rows, or K* of their identity columns), or in
  streaming a run of a block row or column (:data:`STREAM_RUN_SHARE`),
  one stacked sketched (narrow: truncated) SVD a line or run;
* entry oracle above the dense limit -- the randomized sampling engine
  block by block, four reads a block, a line's or a run's results stacked;
* operator oracle, wider blocks -- K and K* applied to block-diagonal
  Gaussian probes, :data:`CALL_WIDTH` probe columns a call, built slice by
  slice from the m diagonal blocks; then one stacked probe finish per row.

Stage two recursively refactors the left and right factors level by level,
splitting rows and merging sibling column groups, until the leaf level.  A
level that must truncate (more rows per output node than the rank) keeps
the leading singular directions of each block; a level that keeps every
row only needs an orthonormal row basis and takes one batched QR instead.

Each public stage function runs its pure linear algebra on the thread
pool that the process keeps (:mod:`butterfly._pool` sizes it).  Oracles
are called only from the calling thread, in a fixed order: the caller reads
and checks block lines (dense ones :data:`CALL_WIDTH` rows a call) while the
pool compresses and places them, holding a call's block rows or one line a
worker, whichever is more, and the refactoring, which reads no oracle, runs
the groups of middle nodes that :func:`butterfly._pool.spans` cuts side by
side.  Every unit of work is computed as it would be alone, and a slice of
a stacked LAPACK call equals the call on that slice, so the factors are
bit-identical for any CPU count.

Randomness is derived per block from the master seed (spawn keys carry the
block coordinates), so results are independent of the schedule: streaming
refactors one block line at a time with O(n log n) peak memory and
bit-identical factors, serially (see :data:`STREAM_RUN_SHARE`).
"""

from __future__ import annotations

from functools import partial
from itertools import product

import numpy as np

from . import _pool
from .factors import (ButterflyFactors, MiddleFactor, TransferFactor,
                      chain_geometry)
from .lowrank import (PROBE_OVERSAMPLING, LowRankApprox, at_dense_limit,
                      complex_normal, floored_inverse, randomized_sampling_svd,
                      sketched_svd, svd_from_probes, truncated_svd)
from .oracles import OracleError, is_entry_oracle, is_operator_oracle
from .partition import DyadicPartition

_SAMPLING_DOMAIN = 0
_COL_PROBE_DOMAIN = 1
_ROW_PROBE_DOMAIN = 2
_SKETCH_DOMAIN = 3

#: Streaming reads a block line in runs of blocks holding at most
#: 1/STREAM_RUN_SHARE of the factor bytes, one call and one stacked SVD a
#: run.  FIO n=512, leaf 1, r=6 (runs of 4) on 2 cores, BLAS on one thread,
#: runs of 1 / 2 / 4 / 8 / 16: 0.185 / 0.138 / 0.122 / 0.109 / 0.101 s, peak
#: 1.970 / 1.986 / 2.053 / 2.301 / 2.798 MB (factors 1.749 MB).  Runs of 4
#: compressed on the pool while the next was read: 0.190 s and 2.367 MB.
STREAM_RUN_SHARE = 24

#: Rows of K a dense-line call reads, and probe columns a probe call applies.
#: Hankel n=512, leaf 0.25, r=6, 2 cores, 16 / 128 / 256 / 512 rows a call:
#: middle level 71 / 27 / 29 / 26 ms, peak 6.80 / 6.80 / 8.12 / 8.15 MB.
CALL_WIDTH = 128


def check_seed(seed):
    """``seed`` if it is a non-negative integer; ``None`` is rejected too."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def block_rng(seed, *key) -> np.random.Generator:
    """Independent generator for one construction sub-task."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def check_rank(p: DyadicPartition, r: int):
    """(m, side) of the middle level if rank ``r`` fits its blocks."""
    m, side = p.mid_nodes, p.mid_side
    if not 1 <= r <= side:
        raise ValueError(f"rank {r} outside [1, {side}] at n={p.n}")
    return m, side


def _shaped(values, shape):
    """``values`` if it is an array of ``shape``, else a ValueError."""
    if values.shape != shape:
        raise ValueError(f"oracle output is {values.shape}, not {shape}")
    return values


def _checked(call, source, where, row_nodes, col_nodes, rows, cols,
             locate=lambda i, j: (i, j)):
    """One oracle call's output as ``row_nodes`` x ``col_nodes`` blocks of
    ``rows`` x ``cols``, a view [row node, col node, row, col].  A failed
    call or an output of another shape names ``where``; non-finite output
    names the first bad block, or the block ``locate`` finds from it."""
    shape = (len(row_nodes) * rows, len(col_nodes) * cols)
    try:
        values = _shaped(call(), shape)
    except Exception as exc:  # keep the failing blocks identifiable
        raise OracleError(f"{source} failed on {where}") from exc
    blocks = values.reshape(len(row_nodes), rows, -1, cols).swapaxes(1, 2)
    bad = np.argwhere(~np.isfinite(blocks).all(axis=(2, 3)))
    if bad.size:
        i, j = locate(row_nodes[bad[0, 0]], col_nodes[bad[0, 1]])
        raise OracleError(f"{source} returned non-finite values for middle "
                          f"block ({i}, {j})")
    return blocks


def _locate(op, p, adjoint, i, j):
    """``locate`` for :func:`_checked` on products of K, or with ``adjoint``
    of K*, as blocks of K.  A non-finite K[a, b] fills a's block row of K's
    products (0 * nan) and b's block column of K*'s, so the first flagged
    block (i, j) is exact only in i, or only in j: the other product, on
    that node's identity columns, names the block (an operator that
    disagrees keeps (i, j))."""
    m, side = p.mid_nodes, p.mid_side
    eye = np.eye(p.n, side, -(j if adjoint else i) * side, complex)
    if adjoint:
        _checked(lambda: op.apply(eye), "operator oracle",
                 f"middle block column {j}", range(m), [j], side, side)
    else:
        _checked(lambda: op.apply_adjoint(eye).T, "operator oracle",
                 f"middle block row {i}", [i], range(m), side, side)
    return i, j


def _read(entry, p, row_nodes, col_nodes, rows=None, cols=None):
    """Middle blocks ``row_nodes`` x ``col_nodes`` on local ``rows`` and
    ``cols`` (all by default), read in one checked call as its view."""
    side = p.mid_side
    rows, cols = (np.arange(side) if x is None else x for x in (rows, cols))
    first, last = (row_nodes[0], col_nodes[0]), (row_nodes[-1], col_nodes[-1])
    where = (f"middle block {first}" if first == last
             else f"middle blocks {first} to {last}")
    return _checked(lambda: entry.block(
        np.add.outer(np.multiply(row_nodes, side), rows).ravel(),
        np.add.outer(np.multiply(col_nodes, side), cols).ravel()),
        "entry oracle", where, row_nodes, col_nodes, rows.size, cols.size)


def _narrow(side, r) -> bool:
    """Whether side-wide blocks are read whole and truncated: r + 5 sketch
    or probe columns a side would exceed half of them."""
    return r + PROBE_OVERSAMPLING > side // 2


def _compress_dense(ids, blocks, r, seed) -> LowRankApprox:
    """Stacked rank-r triples of blocks ``ids`` read by :func:`_checked`."""
    side = blocks.shape[-1]
    if _narrow(side, r):
        return truncated_svd(blocks, r)
    width = r + PROBE_OVERSAMPLING
    omega = [complex_normal(block_rng(seed, _SKETCH_DOMAIN, *b), (side, width))
             for b in ids]
    return sketched_svd(blocks, r, np.stack(omega))


def _sampled(read, ids, side, r, seed):
    """A finish for blocks ``ids``: the sampling engine's triples, stacked."""
    parts = [randomized_sampling_svd(
        lambda rows, cols: read([i], [j], rows, cols)[0, 0],
        side, side, r, block_rng(seed, _SAMPLING_DOMAIN, i, j))
        for i, j in ids]
    return partial(LowRankApprox, *map(np.stack, zip(
        *((a.u0, a.sigma0, a.v0) for a in parts))))


def _dense_lines(read, p, r, seed, step=0, column=False, whole_rows=True):
    """``(k, run, finish)`` for the blocks ``run`` (a slice) of each block
    row k of K in order, or with ``column`` of each block column, where
    ``finish()`` gives their stacked rank-r triples.  A call reads ``step``
    blocks of one line, or by default max(1, CALL_WIDTH // side) block rows,
    as one :func:`_checked` view ``read(row_nodes, col_nodes)`` that only
    its finishes hold.  Without ``whole_rows``, lines above the dense limit
    go to :func:`_sampled`, call by call on the calling thread."""
    m, side = p.mid_nodes, p.mid_side
    lines, step = (1, step) if step else (max(1, CALL_WIDTH // side), m)
    engine = not (whole_rows or at_dense_limit(side, side, r))
    for lo, first in product(range(0, m, lines), range(0, m, step)):
        ks, run = range(lo, min(lo + lines, m)), slice(first, first + step)
        js = range(m)[run]
        ids = [[(j, k) if column else (k, j) for j in js] for k in ks]
        if engine:
            finishes = [_sampled(read, line, side, r, seed) for line in ids]
        else:
            finishes = [partial(_compress_dense, line, blocks, r, seed)
                        for line, blocks in zip(ids, read(js, ks).swapaxes(
                            0, 1) if column else read(ks, js))]
        for k in ks:  # popped: a finish is held by its consumer alone
            yield k, run, finishes.pop(0)


def _place_line(apx: LowRankApprox, u=None, v=None, w=None):
    """Write the stacked triples of the blocks (i, j), j in ``run``, into
    whichever of the views ``u[i, :, run]``, ``v[run, :, i]`` and
    ``w[i, run]`` is given (streaming's block columns go to ``v`` alone)."""
    scaled = apx.sigma0[:, None, :]
    if u is not None:
        u[...] = (apx.u0 * scaled).swapaxes(0, 1)
    if v is not None:
        v[...] = apx.v0 * scaled
    if w is not None:
        w[...] = floored_inverse(apx.sigma0)


def _middle_level(p: DyadicPartition, r: int, lines):
    """U, M and V of the middle level from the ``(i, run, finish)`` lines of
    its m block rows in order (:func:`_dense_lines`), drawn on the calling
    thread.  Finishing and placing run in a pool, which queues as many as a
    dense-line call reads, so the caller reads on."""
    m, side = p.mid_nodes, p.mid_side
    u = np.empty((m, side, m, r), dtype=np.complex128)
    v = np.empty((m, side, m, r), dtype=np.complex128)
    w = np.empty((m, m, r))

    def place(i, run, finish):
        _place_line(finish(), u[i][:, run], v[run, :, i], w[i][run])

    _pool.in_pool((place, lines), window=CALL_WIDTH // side)
    return (TransferFactor(p.half, u.reshape(m, 1, 1, side, m * r)),
            MiddleFactor(w),
            TransferFactor(p.half, v.reshape(m, 1, 1, side, m * r)))


def middle_factorization_sampling(entry, p: DyadicPartition, r: int, seed=0):
    """Rank-r middle factorization through an entry oracle, by block row."""
    check_seed(seed)
    check_rank(p, r)
    return _middle_level(p, r, _dense_lines(
        partial(_read, entry, p), p, r, seed,
        whole_rows=getattr(entry, "whole_rows", False)))


def _probe_products(apply_fn, probe: np.ndarray) -> np.ndarray:
    """``apply_fn`` of the block-diagonal probe whose diagonal blocks are
    ``probe`` (m, side, width), a slice of :data:`CALL_WIDTH` columns built
    per call, as (m side, m width)."""
    m, side, width = probe.shape
    out = np.empty((m * side, m * width), dtype=np.complex128)
    for lo in range(0, m * width, CALL_WIDTH):
        cols = np.arange(lo, min(lo + CALL_WIDTH, m * width))
        piece = np.zeros((m, side, cols.size), dtype=np.complex128)
        nodes = cols // width
        piece[nodes, :, cols - lo] = probe[nodes, :, cols % width]
        out[:, lo:lo + cols.size] = _shaped(
            apply_fn(piece.reshape(m * side, -1)), (m * side, cols.size))
    return out


def middle_factorization_matvec(op, p: DyadicPartition, r: int, seed=0):
    """Rank-r middle factorization from black-box applications of K and K*.

    Narrow blocks (:func:`_narrow`) are dense lines, K* of identity columns
    giving block rows of K.  Wider ones take one structured probe per side:
    the column probe shares its diagonal block across all block rows, so an
    application to a slice of it covers the level, and each block row is
    finished from the stored products alone, in one stacked pass.  K* R is
    checked transposed, as blocks of K, like K C.
    """
    check_seed(seed)
    m, side = check_rank(p, r)
    if _narrow(side, r):
        def rows_of_k(nodes, col_nodes):
            eye = np.eye(p.n, len(nodes) * side, -nodes[0] * side, complex)
            return _checked(lambda: np.conj(op.apply_adjoint(eye)).T,
                            "operator oracle", f"middle block rows {nodes[0]} "
                            f"to {nodes[-1]}", nodes, col_nodes, side, side,
                            partial(_locate, op, p, True))
        return _middle_level(p, r, _dense_lines(rows_of_k, p, r, seed))
    width = r + PROBE_OVERSAMPLING
    col_probe, row_probe = (
        np.stack([complex_normal(block_rng(seed, domain, j), (side, width))
                  for j in range(m)])
        for domain in (_COL_PROBE_DOMAIN, _ROW_PROBE_DOMAIN))
    k_cols = _checked(lambda: _probe_products(op.apply, col_probe),
                      "operator oracle", "the probe block", range(m),
                      range(m), side, width, partial(_locate, op, p, False))
    k_rows = _checked(lambda: _probe_products(op.apply_adjoint, row_probe).T,
                      "operator oracle", "the probe block", range(m),
                      range(m), width, side, partial(_locate, op, p, True))
    return _middle_level(p, r, ((i, slice(None), partial(
        svd_from_probes, k_cols[i], k_rows[i].swapaxes(1, 2), row_probe[i],
        r)) for i in range(m)))


def _refactor(cur: np.ndarray, levels, first: int) -> None:
    """Refactor a stack of middle nodes of one side down to the leaf level.

    ``cur`` is (nodes, rows, groups, r): the middle nodes ``first``,
    ``first + 1``, ...  ``levels`` holds one array per entry of
    :func:`chain_geometry`, leaf last, and the rows of these nodes are
    written into each.  Each level pairs sibling column groups and splits
    the rows t ways into (rows per output node) x 2k_in blocks A = C B.  It
    stores B, k_out x 2k_in with orthonormal rows, and passes C down.
    Where k_out is less than the rows, B holds the leading k_out right
    singular vectors of A (one batched SVD).  Where k_out equals the rows
    nothing is dropped: the QR of A^T gives A = (R^T F)(F* Q^T), F the
    unitary DFT, which keeps the zeros of the triangle R out of the
    stored blocks.
    """
    *transfer, leaf = levels
    lo = first
    for out in transfer:
        _, pairs, t, k_out, two_k = out.shape
        nb, rows = cur.shape[:2]
        half = rows // t
        stacked = cur.reshape(nb, t, half, pairs, two_k).swapaxes(2, 3)
        level = out[lo:lo + nb].swapaxes(1, 2)  # (nb, t, pairs, k_out, 2k)
        shape = (nb, t, half, pairs, k_out)  # the next level's input
        if k_out == half:
            q, r = np.linalg.qr(stacked.swapaxes(-1, -2))
            f = np.fft.fft(np.eye(half), norm="ortho")  # unitary DFT
            np.matmul(f.conj().T, q.swapaxes(-1, -2), out=level)
            del q  # free before the next level's input
            new_u = np.empty(shape, dtype=np.complex128)
            np.matmul(r.swapaxes(-1, -2), f, out=new_u.swapaxes(2, 3))
        else:
            uu, ss, vh = np.linalg.svd(stacked, full_matrices=False)
            level[...] = vh[..., :k_out, :]
            del vh  # free before the next level's input
            new_u = np.empty(shape, dtype=np.complex128)
            np.multiply(uu[..., :k_out], ss[..., None, :k_out],
                        out=new_u.swapaxes(2, 3))
        cur = new_u.reshape(nb * t, half, pairs, k_out)
        lo *= t
    nb, rows, _, k = cur.shape
    leaf[lo:lo + nb] = cur.reshape(nb, 1, 1, rows, k)


def _side(p: DyadicPartition, r: int, levels):
    """(leaf factor, transfer chain) of one side from its level arrays."""
    *chain, leaf = (TransferFactor(lvl, blocks) for (lvl, _), blocks
                    in zip(chain_geometry(p, r), levels))
    return leaf, tuple(chain)


def recursive_factor_u(u_h: TransferFactor, p: DyadicPartition, r: int):
    """Expand the middle left factor into its leaf factor and transfer chain."""
    m, side = p.mid_nodes, p.mid_side
    cur = u_h.blocks.reshape(m, side, m, r)
    levels = [np.empty(s, np.complex128) for _, s in chain_geometry(p, r)]
    _pool.in_pool((_refactor, ((cur[lo:hi], levels, lo)
                               for lo, hi in _pool.spans(m))))
    return _side(p, r, levels)


def recursive_factor_v(v_h: TransferFactor, p: DyadicPartition, r: int):
    """Same expansion applied to the right factor (chain is used adjointed)."""
    return recursive_factor_u(v_h, p, r)


def factorize(oracle, p: DyadicPartition, r: int, seed=0,
              mode="sampling") -> ButterflyFactors:
    """Build the full sparse chain for the operator behind ``oracle``.

    mode="sampling"   entry oracle, whole middle level in memory;
    mode="matvec"     operator oracle, identity slices or random probes;
    mode="streaming"  entry oracle, one middle block row/column at a time
                      (O(n log n) peak memory, bit-identical factors).
    """
    check_rank(p, r)
    check_seed(seed)
    if mode in ("sampling", "streaming") and not is_entry_oracle(oracle):
        raise ValueError(f"mode={mode!r} needs an entry oracle")
    if mode == "matvec" and not is_operator_oracle(oracle):
        raise ValueError("mode='matvec' needs an operator oracle")
    if tuple(oracle.shape) != (p.n, p.n):
        raise ValueError(f"oracle is {tuple(oracle.shape)}, the partition "
                         f"needs ({p.n}, {p.n})")

    if mode == "sampling":
        u_h, middle, v_h = middle_factorization_sampling(oracle, p, r, seed)
    elif mode == "matvec":
        u_h, middle, v_h = middle_factorization_matvec(oracle, p, r, seed)
    elif mode == "streaming":
        return _factorize_streaming(oracle, p, r, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    u_outer, g_chain = recursive_factor_u(u_h, p, r)
    del u_h  # the middle-level U, n m r entries, is not needed for V
    v_outer, h_chain = recursive_factor_v(v_h, p, r)
    return ButterflyFactors(p, r, u_outer, g_chain, middle, h_chain, v_outer)


def _factorize_streaming(entry, p, r, seed) -> ButterflyFactors:
    m, side = check_rank(p, r)
    held = 2 * sum(int(np.prod(shape)) for _, shape in chain_geometry(p, r))
    whole_rows = getattr(entry, "whole_rows", False)
    step = m if whole_rows else max(1, held // (STREAM_RUN_SHARE * side**2))
    weights = np.empty((m, m, r))
    slab = np.empty((1, side, m, r), dtype=np.complex128)
    sides = []
    for column in (False, True):
        levels = [np.empty(s, np.complex128) for _, s in chain_geometry(p, r)]
        # the u side takes block row k, the v side block column k, a run
        # of blocks a call, each placed and dropped before the next is read
        for k, run, finish in _dense_lines(partial(_read, entry, p), p, r,
                                           seed, step, column, whole_rows):
            if column:
                _place_line(finish(), v=slab[0][:, run].swapaxes(0, 1))
            else:
                _place_line(finish(), u=slab[0][:, run], w=weights[k][run])
            del finish
            if run.stop >= m:
                _refactor(slab, levels, k)
        sides.append(_side(p, r, levels))
    (u_outer, g_chain), (v_outer, h_chain) = sides
    return ButterflyFactors(p, r, u_outer, g_chain, MiddleFactor(weights),
                            h_chain, v_outer)

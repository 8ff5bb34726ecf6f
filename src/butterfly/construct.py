"""Two-stage construction of the sparse factor chain.

Stage one compresses every middle-level block to rank r, either by sampled
entries or through black-box applications of the operator, and assembles the
block-diagonal left/right factors and the weighted permutation in between.
It works by block line: the m blocks of one block row (or, for the right
side of the streaming mode, one block column) are produced as one stack of
rank-r triples, and one assembler places every line whatever the mode.

* entry oracle, blocks at the dense limit or marked ``whole_rows`` -- one
  ``block`` call per line and one stacked sketched (for narrow blocks,
  truncated) SVD; streaming reads such a line block by block unless the
  oracle is ``whole_rows``, so it never holds a side x n line;
* entry oracle above the dense limit -- the randomized sampling engine
  block by block, its results stacked;
* operator oracle -- one application of K and one of K* for the whole
  level, then one stacked probe finish per block row.

Stage two recursively refactors the left and right factors level by level,
splitting rows and merging sibling column groups, until the leaf level.

Randomness is derived per block from the master seed (spawn keys carry the
block coordinates), so results are independent of the schedule: the
streaming mode rebuilds one diagonal block at a time with O(n log n) peak
memory and produces bit-identical factors.
"""

from __future__ import annotations

import numpy as np

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


def block_rng(seed, *key) -> np.random.Generator:
    """Independent generator for one construction sub-task."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _middle_shapes(p: DyadicPartition, r: int):
    m, side = p.mid_nodes, p.mid_side
    if side < r:
        raise ValueError(f"middle blocks are {side} wide, below rank {r}")
    return m, side


def _non_finite(source, i, j) -> OracleError:
    return OracleError(f"{source} returned non-finite values for middle "
                       f"block ({i}, {j})")


def _sample_block(entry, p, r, seed, i, j):
    side = p.mid_side

    def finite_block(rows, cols):
        values = entry.block(np.asarray(rows, dtype=np.intp) + i * side,
                             np.asarray(cols, dtype=np.intp) + j * side)
        if not np.isfinite(values).all():
            raise _non_finite("entry oracle", i, j)
        return values

    rng = block_rng(seed, _SAMPLING_DOMAIN, i, j)
    try:
        return randomized_sampling_svd(finite_block, side, side, r, rng)
    except OracleError:
        raise
    except Exception as exc:  # keep the failing block identifiable
        raise OracleError(f"entry oracle failed on middle block ({i}, {j})") from exc


def _dense_part(entry, p, r, seed, k, others, column):
    """Stacked rank-r triples of the blocks ``others`` (a range) of block
    row k, or of block column k with ``column``, read in one call."""
    side = p.mid_side
    ids = [(other, k) if column else (k, other) for other in others]
    node = np.asarray(p.node_range(p.half, k))
    span = np.arange(others.start * side, others.stop * side)
    try:
        values = entry.block(span, node) if column else entry.block(node, span)
    except Exception as exc:
        raise OracleError(f"entry oracle failed on middle blocks {ids[0]} "
                          f"to {ids[-1]}") from exc
    blocks = (values.reshape(len(ids), side, side) if column
              else values.reshape(side, len(ids), side).swapaxes(0, 1))
    finite = np.isfinite(blocks).all(axis=(1, 2))
    if not finite.all():
        raise _non_finite("entry oracle", *ids[int(np.argmin(finite))])
    width = r + PROBE_OVERSAMPLING
    if width > side // 2:
        return truncated_svd(blocks, r)
    omega = [complex_normal(block_rng(seed, _SKETCH_DOMAIN, *b), (side, width))
             for b in ids]
    return sketched_svd(blocks, r, np.stack(omega))


def _entry_line(entry, p, r, seed, k, column=False,
                streaming=False) -> LowRankApprox:
    """Stacked rank-r triples of the m blocks of block row k.

    With ``column`` the line is block column k, returned as block row k of
    the adjoint (u0 and v0 swapped), so that it is placed like a row.
    """
    m, side = p.mid_nodes, p.mid_side
    whole_rows = getattr(entry, "whole_rows", False)
    if whole_rows or at_dense_limit(side, side, r):
        step = 1 if streaming and not whole_rows else m
        parts = [_dense_part(entry, p, r, seed, k, range(lo, lo + step), column)
                 for lo in range(0, m, step)]
        join = np.concatenate
    else:
        parts = [_sample_block(entry, p, r, seed,
                               *((other, k) if column else (k, other)))
                 for other in range(m)]
        join = np.stack
    u0, sigma0, v0 = map(join, zip(*((a.u0, a.sigma0, a.v0) for a in parts)))
    return LowRankApprox(*((v0, sigma0, u0) if column else (u0, sigma0, v0)))


def _place_line(apx: LowRankApprox, u_row=None, v_col=None, w_row=None):
    """Write the stacked triples of one block row i, block (i, j) going to
    ``u[i, :, j, :]``, ``v[j, :, i, :]`` and ``w[i, j]``; the arguments
    are the views ``u[i]``, ``v[:, :, i]`` and ``w[i]`` (any may be left out).
    """
    scaled = apx.sigma0[:, None, :]
    if u_row is not None:
        u_row[...] = (apx.u0 * scaled).swapaxes(0, 1)
    if v_col is not None:
        v_col[...] = apx.v0 * scaled
    if w_row is not None:
        w_row[...] = floored_inverse(apx.sigma0)


def _middle_level(p: DyadicPartition, r: int, lines):
    """U, M and V of the middle level from its m block rows in order."""
    m, side = p.mid_nodes, p.mid_side
    u = np.zeros((m, side, m, r), dtype=np.complex128)
    v = np.zeros((m, side, m, r), dtype=np.complex128)
    w = np.zeros((m, m, r))
    for i, apx in enumerate(lines):
        _place_line(apx, u[i], v[:, :, i], w[i])
    return (TransferFactor(p.half, u.reshape(m, 1, 1, side, m * r)),
            MiddleFactor(w),
            TransferFactor(p.half, v.reshape(m, 1, 1, side, m * r)))


def middle_factorization_sampling(entry, p: DyadicPartition, r: int, seed=0):
    """Rank-r middle factorization through an entry oracle, by block row."""
    m, _ = _middle_shapes(p, r)
    return _middle_level(p, r, (_entry_line(entry, p, r, seed, i)
                                for i in range(m)))


def _apply_chunked(apply_fn, block: np.ndarray, chunk: int = 128) -> np.ndarray:
    if block.shape[1] <= chunk:
        return apply_fn(block)
    return np.concatenate([apply_fn(block[:, c:c + chunk])
                           for c in range(0, block.shape[1], chunk)], axis=1)


def block_diagonal_probe(p: DyadicPartition, width: int, seed, domain) -> np.ndarray:
    """Gaussian probe with one (side x width) block per middle node."""
    m, side = p.mid_nodes, p.mid_side
    probe = np.zeros((p.n, m * width), dtype=np.complex128)
    for j in range(m):
        rng = block_rng(seed, domain, j)
        probe[j * side:(j + 1) * side, j * width:(j + 1) * width] = \
            complex_normal(rng, (side, width))
    return probe


def _check_probe_products(k_cols, k_rows, m, side, width):
    """Raise OracleError naming the first block whose probe products are
    not finite; a block bad on both sides is named first, since a single
    bad operator entry spreads along a whole block row of K C (and column
    of K* R) through the zero parts of the probes."""
    def bad(y):  # [row node, probe group]
        return ~np.isfinite(y).reshape(m, side, m, width).all(axis=(1, 3))

    bad_cols, bad_rows = bad(k_cols), bad(k_rows).T
    if bad_cols.any() or bad_rows.any():
        both = bad_cols & bad_rows
        i, j = np.argwhere(both if both.any() else bad_cols | bad_rows)[0]
        raise _non_finite("operator oracle", i, j)


def middle_factorization_matvec(op, p: DyadicPartition, r: int, seed=0):
    """Rank-r middle factorization from black-box applications of K and K*.

    One structured probe per side feeds every middle block: the column probe
    shares its diagonal block across all block rows, so a single application
    of the operator covers the whole level.  Each block row is finished from
    the stored products alone, in one stacked pass.
    """
    m, side = _middle_shapes(p, r)
    width = min(r + PROBE_OVERSAMPLING, side)  # whole blocks once they are small
    col_probe = block_diagonal_probe(p, width, seed, _COL_PROBE_DOMAIN)
    row_probe = block_diagonal_probe(p, width, seed, _ROW_PROBE_DOMAIN)
    try:
        k_cols = _apply_chunked(op.apply, col_probe)
        k_rows = _apply_chunked(op.apply_adjoint, row_probe)
    except Exception as exc:
        raise OracleError("operator oracle failed on the probe block") from exc
    _check_probe_products(k_cols, k_rows, m, side, width)

    def line(i):
        rows = slice(i * side, (i + 1) * side)
        group = slice(i * width, (i + 1) * width)
        y_col = k_cols[rows].reshape(side, m, width).swapaxes(0, 1)
        y_row = k_rows[:, group].reshape(m, side, width)
        return svd_from_probes(y_col, y_row, row_probe[rows, group], r)

    return _middle_level(p, r, (line(i) for i in range(m)))


def _recurse(cur: np.ndarray, p: DyadicPartition, r: int):
    """Refactor a stack of diagonal blocks down to the leaf level.

    ``cur`` is (nodes, rows, groups, r), any whole number of middle nodes.
    Each level pairs sibling column groups, splits the rows as
    :func:`chain_geometry` says, and keeps the leading k_out singular
    directions of every (rows per output node) x 2k_in block.  Returns the
    (level, blocks) pieces in the order of :func:`chain_geometry`, the leaf
    (nodes, 1, 1, rows, k) last.
    """
    *levels, (leaf_level, _) = chain_geometry(p, r)
    pieces = []
    for lvl, (_, t, pairs, k_out, two_k) in levels:
        nb, rows = cur.shape[:2]
        half = rows // t
        stacked = cur.reshape(nb, t, half, pairs, two_k).swapaxes(2, 3)
        uu, ss, vh = np.linalg.svd(stacked, full_matrices=False)
        pieces.append((lvl, np.ascontiguousarray(vh[..., :k_out, :])))
        new_u = uu[..., :k_out] * ss[..., None, :k_out]  # (nb, t, pairs, half, k)
        cur = new_u.swapaxes(2, 3).reshape(nb * t, half, pairs, k_out)
    nb, rows, _, k = cur.shape
    leaf = np.ascontiguousarray(cur.reshape(nb, 1, 1, rows, k))
    return pieces + [(leaf_level, leaf)]


def _side(pieces):
    """(leaf factor, transfer chain) of one side from :func:`_recurse`."""
    *chain, leaf = (TransferFactor(lvl, blocks) for lvl, blocks in pieces)
    return leaf, tuple(chain)


def recursive_factor_u(u_h: TransferFactor, p: DyadicPartition, r: int):
    """Expand the middle left factor into its leaf factor and transfer chain."""
    m, side = p.mid_nodes, p.mid_side
    return _side(_recurse(u_h.blocks.reshape(m, side, m, r), p, r))


def recursive_factor_v(v_h: TransferFactor, p: DyadicPartition, r: int):
    """Same expansion applied to the right factor (chain is used adjointed)."""
    return recursive_factor_u(v_h, p, r)


def factorize(oracle, p: DyadicPartition, r: int, seed=0,
              mode="sampling") -> ButterflyFactors:
    """Build the full sparse chain for the operator behind ``oracle``.

    mode="sampling"   entry oracle, whole middle level in memory;
    mode="matvec"     operator oracle, structured random probes;
    mode="streaming"  entry oracle, one middle block row/column at a time
                      (O(n log n) peak memory, bit-identical factors).
    """
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
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
    v_outer, h_chain = recursive_factor_v(v_h, p, r)
    return ButterflyFactors(p, r, u_outer, g_chain, middle, h_chain, v_outer)


def _factorize_streaming(entry, p, r, seed) -> ButterflyFactors:
    m, side = _middle_shapes(p, r)
    weights = np.zeros((m, m, r))
    shapes = chain_geometry(p, r)
    sides = []
    for column in (False, True):
        arrays = [np.zeros(shape, dtype=np.complex128) for _, shape in shapes]
        for k in range(m):
            # the u side takes block row k, the v side block column k
            slab = np.zeros((1, side, m, r), dtype=np.complex128)
            line = _entry_line(entry, p, r, seed, k, column, streaming=True)
            _place_line(line, slab[0], w_row=None if column else weights[k])
            for array, (_, blocks) in zip(arrays, _recurse(slab, p, r)):
                nb = blocks.shape[0]
                array[k * nb:(k + 1) * nb] = blocks
        sides.append(_side([(lvl, a) for (lvl, _), a in zip(shapes, arrays)]))
    (u_outer, g_chain), (v_outer, h_chain) = sides
    return ButterflyFactors(p, r, u_outer, g_chain, MiddleFactor(weights),
                            h_chain, v_outer)

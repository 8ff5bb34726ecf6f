"""Two-stage construction of the sparse factor chain.

Stage one compresses every middle-level block to rank r, either by sampled
entries or through black-box applications of the operator, and assembles the
block-diagonal left/right factors and the weighted permutation in between.
Stage two recursively refactors the left and right factors level by level,
splitting rows and merging sibling column groups, until the leaf level.

Randomness is derived per block from the master seed (spawn keys carry the
block coordinates), so results are independent of the schedule: the
streaming mode rebuilds one diagonal block at a time with O(n log n) peak
memory and produces bit-identical factors.
"""

from __future__ import annotations

import numpy as np

from .factors import (BlockDiagonalFactor, ButterflyFactors, MiddleFactor,
                      TransferFactor, chain_geometry)
from .lowrank import (DEFAULT_PARAMS, complex_normal, floored_inverse,
                      randomized_sampling_svd, svd_from_probes)
from .oracles import BlockView, OracleError, is_entry_oracle, is_operator_oracle
from .partition import DyadicPartition

_SAMPLING_DOMAIN = 0
_COL_PROBE_DOMAIN = 1
_ROW_PROBE_DOMAIN = 2


def block_rng(seed, *key) -> np.random.Generator:
    """Independent generator for one construction sub-task."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _middle_shapes(p: DyadicPartition, r: int):
    m, side = p.mid_nodes, p.mid_side
    if side < r:
        raise ValueError(f"middle blocks are {side} wide, below rank {r}")
    return m, side


def _sample_block(entry, p, r, params, seed, i, j):
    sub = BlockView(entry, p.node_range(p.half, i), p.node_range(p.half, j))
    rng = block_rng(seed, _SAMPLING_DOMAIN, i, j)
    try:
        return randomized_sampling_svd(sub.block, sub.shape[0], sub.shape[1],
                                       r, params, rng)
    except Exception as exc:  # keep the failing block identifiable
        raise OracleError(f"entry oracle failed on middle block ({i}, {j})") from exc


def middle_factorization_sampling(entry, p: DyadicPartition, r: int,
                                  params=DEFAULT_PARAMS, seed=0):
    """Rank-r middle factorization through an entry oracle."""
    m, side = _middle_shapes(p, r)
    u = np.zeros((m, side, m, r), dtype=np.complex128)
    v = np.zeros((m, side, m, r), dtype=np.complex128)
    w = np.zeros((m, m, r))
    for i in range(m):
        for j in range(m):
            apx = _sample_block(entry, p, r, params, seed, i, j)
            u[i, :, j, :] = apx.u0 * apx.sigma0
            v[j, :, i, :] = apx.v0 * apx.sigma0
            w[i, j] = floored_inverse(apx.sigma0)
    return (BlockDiagonalFactor(u.reshape(m, side, m * r)),
            MiddleFactor(w),
            BlockDiagonalFactor(v.reshape(m, side, m * r)))


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


def middle_factorization_matvec(op, p: DyadicPartition, r: int,
                                params=DEFAULT_PARAMS, seed=0):
    """Rank-r middle factorization from black-box applications of K and K*.

    One structured probe per side feeds every middle block: the column probe
    shares its diagonal block across all block rows, so a single application
    of the operator covers the whole level.  Per-block SVDs are finished
    from the stored products alone.
    """
    m, side = _middle_shapes(p, r)
    width = min(r + params.p, side)  # full-block probes once blocks are small
    col_probe = block_diagonal_probe(p, width, seed, _COL_PROBE_DOMAIN)
    row_probe = block_diagonal_probe(p, width, seed, _ROW_PROBE_DOMAIN)
    try:
        k_cols = _apply_chunked(op.apply, col_probe)
        k_rows = _apply_chunked(op.apply_adjoint, row_probe)
    except Exception as exc:
        raise OracleError("operator oracle failed on the probe block") from exc

    u = np.zeros((m, side, m, r), dtype=np.complex128)
    v = np.zeros((m, side, m, r), dtype=np.complex128)
    w = np.zeros((m, m, r))
    for i in range(m):
        rows = slice(i * side, (i + 1) * side)
        r_block = row_probe[rows, i * width:(i + 1) * width]
        for j in range(m):
            cols = slice(j * side, (j + 1) * side)
            apx = svd_from_probes(k_cols[rows, j * width:(j + 1) * width],
                                  k_rows[cols, i * width:(i + 1) * width],
                                  r_block, r)
            u[i, :, j, :] = apx.u0 * apx.sigma0
            v[j, :, i, :] = apx.v0 * apx.sigma0
            w[i, j] = floored_inverse(apx.sigma0)
    return (BlockDiagonalFactor(u.reshape(m, side, m * r)),
            MiddleFactor(w),
            BlockDiagonalFactor(v.reshape(m, side, m * r)))


def _recurse(cur: np.ndarray, p: DyadicPartition, r: int):
    """Refactor a stack of diagonal blocks down to the leaf level.

    ``cur`` is (nodes, rows, groups, r), any whole number of middle nodes.
    Each level pairs sibling column groups, splits the rows as
    :func:`chain_geometry` says, and keeps the leading k_out singular
    directions of every (rows per output node) x 2k_in block.  Returns the
    leaf block stack and a list of (level, (nodes, t, pairs, k_out, 2k_in))
    transfer pieces.
    """
    pieces = []
    for lvl, (_, t, pairs, k_out, two_k) in chain_geometry(p, r)[0]:
        nb, rows = cur.shape[:2]
        half = rows // t
        stacked = cur.reshape(nb, t, half, pairs, two_k).swapaxes(2, 3)
        uu, ss, vh = np.linalg.svd(stacked, full_matrices=False)
        pieces.append((lvl, np.ascontiguousarray(vh[..., :k_out, :])))
        new_u = uu[..., :k_out] * ss[..., None, :k_out]  # (nb, t, pairs, half, k)
        cur = new_u.swapaxes(2, 3).reshape(nb * t, half, pairs, k_out)
    return np.ascontiguousarray(cur[:, :, 0, :]), pieces


def recursive_factor_u(u_h: BlockDiagonalFactor, p: DyadicPartition, r: int):
    """Expand the middle left factor into its leaf factor and transfer chain."""
    m, side = p.mid_nodes, p.mid_side
    cur = u_h.blocks.reshape(m, side, m, r)
    leaf, pieces = _recurse(cur, p, r)
    return (BlockDiagonalFactor(leaf),
            tuple(TransferFactor(lvl, blocks) for lvl, blocks in pieces))


def recursive_factor_v(v_h: BlockDiagonalFactor, p: DyadicPartition, r: int):
    """Same expansion applied to the right factor (chain is used adjointed)."""
    return recursive_factor_u(v_h, p, r)


def factorize(oracle, p: DyadicPartition, r: int, params=DEFAULT_PARAMS,
              seed=0, mode="sampling") -> ButterflyFactors:
    """Build the full sparse chain for the operator behind ``oracle``.

    mode="sampling"   entry oracle, whole middle level in memory;
    mode="matvec"     operator oracle, structured random probes;
    mode="streaming"  entry oracle, one middle block row/column at a time
                      (O(n log n) peak memory, bit-identical factors).
    """
    if params is None:
        params = DEFAULT_PARAMS
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    if mode in ("sampling", "streaming") and not is_entry_oracle(oracle):
        raise ValueError(f"mode={mode!r} needs an entry oracle")
    if mode == "matvec" and not is_operator_oracle(oracle):
        raise ValueError("mode='matvec' needs an operator oracle")

    if mode == "sampling":
        u_h, middle, v_h = middle_factorization_sampling(oracle, p, r, params, seed)
    elif mode == "matvec":
        u_h, middle, v_h = middle_factorization_matvec(oracle, p, r, params, seed)
    elif mode == "streaming":
        return _factorize_streaming(oracle, p, r, params, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    u_outer, g_chain = recursive_factor_u(u_h, p, r)
    v_outer, h_chain = recursive_factor_v(v_h, p, r)
    return ButterflyFactors(p, r, u_outer, g_chain, middle, h_chain, v_outer)


def _factorize_streaming(entry, p, r, params, seed) -> ButterflyFactors:
    m, side = _middle_shapes(p, r)
    weights = np.zeros((m, m, r))
    sides = []
    for axis in ("u", "v"):
        shapes, leaf_shape = chain_geometry(p, r)
        chain = {lvl: np.zeros(shape, dtype=np.complex128)
                 for lvl, shape in shapes}
        leaf = np.zeros(leaf_shape, dtype=np.complex128)
        for k in range(m):
            slab = np.zeros((1, side, m, r), dtype=np.complex128)
            for other in range(m):
                i, j = (k, other) if axis == "u" else (other, k)
                apx = _sample_block(entry, p, r, params, seed, i, j)
                if axis == "u":
                    slab[0, :, j, :] = apx.u0 * apx.sigma0
                    weights[i, j] = floored_inverse(apx.sigma0)
                else:
                    slab[0, :, i, :] = apx.v0 * apx.sigma0
            leaf_k, pieces = _recurse(slab, p, r)
            for lvl, blocks in pieces:
                nb = blocks.shape[0]
                chain[lvl][k * nb:(k + 1) * nb] = blocks
            nb = leaf_k.shape[0]
            leaf[k * nb:(k + 1) * nb] = leaf_k
        sides.append((BlockDiagonalFactor(leaf),
                      tuple(TransferFactor(lvl, chain[lvl]) for lvl, _ in shapes)))
    (u_outer, g_chain), (v_outer, h_chain) = sides
    return ButterflyFactors(p, r, u_outer, g_chain, MiddleFactor(weights),
                            h_chain, v_outer)

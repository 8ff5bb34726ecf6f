"""Bit-exact binary serialization of factor chains and vectors.

Factor file layout (all little-endian), version 2:

    magic "BFAC" | version u32 | n u64 | levels u32 | rank u32 | count u32
    then per factor:
        kind u8 (0 leaf-left, 1 transfer-left, 2 middle, 3 transfer-right,
                 4 leaf-right) | level u32 | block_count u64
        then per block:
            row_off u64 | col_off u64 | rows u32 | cols u32 | payload
    payload: kind 2 stores the rank real weights as f64; every other kind
    stores rows*cols complex values as (re, im) f64 pairs, column-major.

Factors appear in product order: leaf-left, transfer-left descending by
level, middle, transfer-right ascending, leaf-right.  Block shapes follow
:func:`~butterfly.factors.chain_geometry`: a transfer level stores
k_out x 2k_in blocks with k_out = min(rank, rows per output node), a leaf
rows x k blocks.  Version 1 files (zero-padded rank x 2*rank transfer
blocks) are rejected.  Vector files are a u64 length followed by that many
complex f64 pairs.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .factors import (BlockDiagonalFactor, ButterflyFactors, MiddleFactor,
                      TransferFactor, chain_geometry)
from .partition import DyadicPartition

MAGIC = b"BFAC"
VERSION = 2

KIND_U_OUTER = 0
KIND_G = 1
KIND_MIDDLE = 2
KIND_H = 3
KIND_V_OUTER = 4

_HEADER = "<IQII"
_FACTOR_HEADER = "<BIQ"
_BLOCK_HEADER = "<QQII"


class FormatError(ValueError):
    """Malformed factor or vector file; ``offset`` is the failing byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise FormatError(
                f"truncated: wanted {count} bytes, file ends", self.offset)
        out = self.data[self.offset:self.offset + count]
        self.offset += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _file_order(f: ButterflyFactors):
    """(kind, level, factor) in the order the file stores them."""
    p = f.partition
    return ([(KIND_U_OUTER, p.levels, f.u_outer)]
            + [(KIND_G, tf.level, tf) for tf in reversed(f.g_chain)]
            + [(KIND_MIDDLE, p.half, f.middle)]
            + [(KIND_H, tf.level, tf) for tf in f.h_chain]
            + [(KIND_V_OUTER, p.levels, f.v_outer)])


def _write_factor(out, kind: int, level: int, factor):
    blocks = list(factor.iter_blocks())
    out.append(struct.pack(_FACTOR_HEADER, kind, level, len(blocks)))
    for row_off, col_off, payload in blocks:
        if kind == KIND_MIDDLE:
            rows = cols = payload.shape[0]
            data = np.asarray(payload, dtype="<f8").tobytes()
        else:
            rows, cols = payload.shape
            data = np.asarray(payload, dtype="<c16").tobytes(order="F")
        out.append(struct.pack(_BLOCK_HEADER, row_off, col_off, rows, cols))
        out.append(data)


def save_factors(f: ButterflyFactors, path) -> None:
    """Write the chain so that save -> load -> save is byte-identical."""
    order = _file_order(f)
    chunks = [MAGIC, struct.pack(_HEADER, VERSION, f.n, f.partition.levels,
                                 f.rank),
              struct.pack("<I", len(order))]
    for kind, level, factor in order:
        _write_factor(chunks, kind, level, factor)
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _file_size(p: DyadicPartition, rank: int) -> int:
    """Byte length of a version-2 file for this geometry."""
    shapes, leaf_shape = chain_geometry(p, rank)
    fixed = len(MAGIC) + struct.calcsize(_HEADER) + 4
    per_factor = struct.calcsize(_FACTOR_HEADER)
    per_block = struct.calcsize(_BLOCK_HEADER)

    def complex_factor(shape):
        blocks = math.prod(shape[:-2])
        return per_factor + blocks * (per_block + 16 * shape[-2] * shape[-1])

    middle = per_factor + p.mid_nodes ** 2 * (per_block + 8 * rank)
    return (fixed + 2 * complex_factor(leaf_shape) + middle
            + 2 * sum(complex_factor(shape) for _, shape in shapes))


def _header_partition(n: int, levels: int, rank: int) -> DyadicPartition:
    # bound the depth first: DyadicPartition evaluates 2**(levels // 2)
    if levels > 2 * n.bit_length():
        raise FormatError(f"tree depth {levels} too deep for n={n}", 16)
    try:
        p = DyadicPartition(n, levels)
    except ValueError as exc:
        raise FormatError(f"bad geometry: {exc}", 8) from exc
    if not 1 <= rank <= p.mid_side:
        raise FormatError(f"rank {rank} outside [1, {p.mid_side}]", 20)
    return p


def _read_blocks(rd: _Reader, kind: int, expected, rank: int):
    """Fill a preallocated factor array in canonical block order."""
    (declared,) = rd.unpack("<Q")
    blocks = list(expected.iter_blocks())
    if declared != len(blocks):
        raise FormatError(
            f"factor kind {kind} declares {declared} blocks, "
            f"geometry implies {len(blocks)}", rd.offset)
    for row_off, col_off, target in blocks:
        r0, c0, rows, cols = rd.unpack(_BLOCK_HEADER)
        if kind == KIND_MIDDLE:
            want = (rank, rank)
        else:
            want = target.shape
        if (r0, c0) != (row_off, col_off) or (rows, cols) != want:
            raise FormatError(
                f"block header mismatch: got offsets ({r0}, {c0}) shape "
                f"({rows}, {cols}), expected ({row_off}, {col_off}) {want}",
                rd.offset)
        if kind == KIND_MIDDLE:
            raw = rd.take(8 * rank)
            target[...] = np.frombuffer(raw, dtype="<f8")
        else:
            raw = rd.take(16 * rows * cols)
            target[...] = np.frombuffer(raw, dtype="<c16").reshape(
                (rows, cols), order="F")


def load_factors(path) -> ButterflyFactors:
    """Read a version-2 factor file; every header field is checked against
    the file length before any factor array is allocated."""
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    if rd.take(4) != MAGIC:
        raise FormatError("bad magic", 0)
    version, n, levels, rank = rd.unpack(_HEADER)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    p = _header_partition(n, levels, rank)
    shapes, leaf_shape = chain_geometry(p, rank)
    (count,) = rd.unpack("<I")
    if count != 3 + 2 * len(shapes):
        raise FormatError(f"factor count {count} does not match geometry",
                          rd.offset - 4)
    size = _file_size(p, rank)
    if size != len(rd.data):
        raise FormatError(f"file holds {len(rd.data)} bytes, header implies "
                          f"{size}", min(size, len(rd.data)))

    def leaf():
        return BlockDiagonalFactor(np.zeros(leaf_shape, dtype=np.complex128))

    def chain():
        return tuple(TransferFactor(lvl, np.zeros(shape, dtype=np.complex128))
                     for lvl, shape in shapes)

    middle = MiddleFactor(np.zeros((p.mid_nodes, p.mid_nodes, rank)))
    f = ButterflyFactors(p, rank, leaf(), chain(), middle, chain(), leaf())
    for kind, level, target in _file_order(f):
        got = rd.unpack("<BI")
        if got != (kind, level):
            raise FormatError(f"factor (kind, level) {got}, expected "
                              f"({kind}, {level})", rd.offset - 5)
        _read_blocks(rd, kind, target, rank)
    return f


def write_vector(path, g: np.ndarray) -> None:
    g = np.asarray(g, dtype="<c16")
    if g.ndim != 1:
        raise ValueError("vector files hold one-dimensional data")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", g.shape[0]))
        fh.write(g.tobytes())


def read_vector(path) -> np.ndarray:
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    (count,) = rd.unpack("<Q")
    raw = rd.take(16 * count)
    if rd.offset != len(rd.data):
        raise FormatError("trailing bytes after vector payload", rd.offset)
    return np.frombuffer(raw, dtype="<c16").copy()

"""Bit-exact binary serialization of factor chains and vectors.

Factor file layout (all little-endian), version 2:

    magic "BFAC" | version u32 | n u64 | levels u32 | rank u32 | count u32
    then per factor:
        kind u8 (0 leaf-left, 1 transfer-left, 2 middle, 3 transfer-right,
                 4 leaf-right) | level u32 | block_count u64
        then block_count records:
            row_off u64 | col_off u64 | rows u32 | cols u32 | payload
    payload: kind 2 stores the rank real weights as f64; every other kind
    stores rows*cols complex values as (re, im) f64 pairs, column-major.

Factors appear in product order: leaf-left, transfer-left descending by
level, middle, transfer-right ascending, leaf-right.  Block shapes follow
:func:`~butterfly.factors.chain_geometry`: a transfer level stores
k_out x 2k_in blocks with k_out = min(rank, rows per output node), a leaf
(the t = pairs = 1 level) rows x k blocks.  Version 1 files (zero-padded
rank x 2*rank transfer blocks) are rejected.  Vector files are a u64 length
followed by that many complex f64 pairs.

:func:`_layout` is the one definition of the records: every block of a
factor has the same record, so each factor is read and written as one numpy
record array.  On load every block header is compared with the layout and
every payload is checked for NaN and inf; the first bad block is reported
at the byte where its header starts.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, NamedTuple

import numpy as np

from .factors import (ButterflyFactors, MiddleFactor, TransferFactor,
                      chain_geometry)
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
_BLOCK_FIELDS = ("row_off", "col_off", "rows", "cols")


class FormatError(ValueError):
    """Malformed factor or vector file; ``offset`` is the failing byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class _Reader:
    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.offset = 0

    def take(self, count: int) -> memoryview:
        if self.offset + count > len(self.data):
            raise FormatError(
                f"truncated: wanted {count} bytes, file ends", self.offset)
        out = self.data[self.offset:self.offset + count]
        self.offset += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


class _Factor(NamedTuple):
    """The records of one factor: ``count`` blocks of one ``dtype``."""

    kind: int
    level: int
    count: int
    dtype: np.dtype
    shape: tuple                # the factor's array
    expected: Callable          # () -> the four header columns

    @property
    def nbytes(self) -> int:
        """File bytes of the factor: its header and its records."""
        return (struct.calcsize(_FACTOR_HEADER)
                + self.count * self.dtype.itemsize)

    def blocks(self, payload: np.ndarray) -> np.ndarray:
        """The (count, cols, rows) payload records as a view of the array."""
        if self.kind == KIND_MIDDLE:
            return payload.reshape(self.shape)
        nodes, pairs, t, rows, cols = self.shape
        return payload.reshape(nodes, t, pairs, cols, rows).transpose(0, 2, 1, 4, 3)


def _layout(p: DyadicPartition, rank: int) -> list[_Factor]:
    """Every factor's records, in file order.

    A complex factor of grid (nodes, t, pairs) -- a leaf is (nodes, 1, 1) --
    stores block [i, s, j], array [i, j, s], at row (flat index) * rows and
    column (i * pairs + j) * cols; middle block [i, j] at row (i*m + j) *
    rank and column (j*m + i) * rank.  Every payload is a block transposed,
    i.e. column-major; the middle weights read as a 1 x rank block.
    ``expected`` builds the offset columns only when called, so the header
    checks run before any array exists.
    """
    shapes = chain_geometry(p, rank)

    def factor(kind, level, shape, payload, expected):
        dtype = np.dtype([("row_off", "<u8"), ("col_off", "<u8"),
                          ("rows", "<u4"), ("cols", "<u4"),
                          ("payload", *payload)])
        count = math.prod(shape) // math.prod(payload[1])
        return _Factor(kind, level, count, dtype, shape, expected)

    def blocks(level, shape, kind, leaf_kind):
        nodes, pairs, t, rows, cols = shape
        grid = nodes, t, pairs

        def expected():
            col = np.arange(nodes * pairs, dtype=np.uint64).reshape(nodes, 1, pairs)
            return (np.arange(nodes * t * pairs, dtype=np.uint64) * rows,
                    np.broadcast_to(col * cols, grid).ravel(), rows, cols)
        kind = leaf_kind if level == p.levels else kind
        return factor(kind, level, shape, ("<c16", (cols, rows)), expected)

    def middle():
        flat = np.arange(p.mid_nodes ** 2, dtype=np.uint64)
        return (flat * rank, flat.reshape(p.mid_nodes, -1).T.ravel() * rank,
                rank, rank)

    return ([blocks(lvl, shape, KIND_G, KIND_U_OUTER)
             for lvl, shape in reversed(shapes)]
            + [factor(KIND_MIDDLE, p.half, (p.mid_nodes, p.mid_nodes, rank),
                      ("<f8", (rank, 1)), middle)]
            + [blocks(lvl, shape, KIND_H, KIND_V_OUTER) for lvl, shape in shapes])


def save_factors(f: ButterflyFactors, path) -> None:
    """Write the chain so that save -> load -> save is byte-identical.

    The file is assembled once, each factor's records filled in place, and
    written with one call.  Every array shape is checked against the
    geometry first, so a misshapen chain raises and leaves no file behind.
    """
    left, right = f.sides
    arrays = [*(tf.blocks for tf in reversed(left)), f.middle.weights,
              *(tf.blocks for tf in right)]
    layout = _layout(f.partition, f.rank)
    for sec, array in zip(layout, arrays, strict=True):
        if array.shape != sec.shape:
            raise ValueError(f"factor kind {sec.kind} at level {sec.level} "
                             f"has shape {array.shape}, geometry implies "
                             f"{sec.shape}")
    head = (MAGIC + struct.pack(_HEADER, VERSION, f.n, f.partition.levels,
                                f.rank) + struct.pack("<I", len(layout)))
    data = np.empty(len(head) + sum(sec.nbytes for sec in layout), np.uint8)
    data[:len(head)] = np.frombuffer(head, np.uint8)
    start = len(head)
    for sec, array in zip(layout, arrays):
        struct.pack_into(_FACTOR_HEADER, data, start, sec.kind, sec.level,
                         sec.count)
        first = start + struct.calcsize(_FACTOR_HEADER)
        start += sec.nbytes
        records = data[first:start].view(sec.dtype)
        for name, column in zip(_BLOCK_FIELDS, sec.expected()):
            records[name] = column
        sec.blocks(records["payload"])[...] = array
    with open(path, "wb") as fh:
        fh.write(data)


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


def _read_factor(rd: _Reader, sec: _Factor):
    """One factor, after checking every record against the layout."""
    start = rd.offset
    got = rd.unpack("<BI")
    if got != (sec.kind, sec.level):
        raise FormatError(f"factor (kind, level) {got}, expected "
                          f"({sec.kind}, {sec.level})", start)
    (declared,) = rd.unpack("<Q")
    if declared != sec.count:
        raise FormatError(f"factor kind {sec.kind} declares {declared} "
                          f"blocks, geometry implies {sec.count}", start + 5)
    first = rd.offset
    records = np.frombuffer(rd.take(sec.count * sec.dtype.itemsize), sec.dtype)

    expected = sec.expected()
    bad = np.zeros(sec.count, dtype=bool)
    for name, column in zip(_BLOCK_FIELDS, expected):
        bad |= records[name] != column
    if bad.any():
        b = int(np.argmax(bad))
        got = tuple(int(records[name][b]) for name in _BLOCK_FIELDS)
        want = tuple(int(np.broadcast_to(c, sec.count)[b]) for c in expected)
        raise FormatError(f"block {b} of factor kind {sec.kind}: header "
                          f"(row_off, col_off, rows, cols) {got}, expected "
                          f"{want}", first + b * sec.dtype.itemsize)
    array = np.ascontiguousarray(sec.blocks(records["payload"]))
    if not np.isfinite(array).all():
        finite = np.isfinite(records["payload"]).reshape(sec.count, -1).all(1)
        b = int(np.argmin(finite))
        raise FormatError(f"block {b} of factor kind {sec.kind} holds NaN or "
                          f"inf", first + b * sec.dtype.itemsize)
    if sec.kind == KIND_MIDDLE:
        return MiddleFactor(array)
    return TransferFactor(sec.level, array)


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
    try:
        layout = _layout(p, rank)
    except ValueError as exc:  # one block record beyond numpy's 2 GiB
        raise FormatError(f"bad geometry: {exc}", 8) from exc
    (count,) = rd.unpack("<I")
    if count != len(layout):
        raise FormatError(f"factor count {count} does not match geometry",
                          rd.offset - 4)
    size = rd.offset + sum(sec.nbytes for sec in layout)
    if size != len(rd.data):
        raise FormatError(f"file holds {len(rd.data)} bytes, header implies "
                          f"{size}", min(size, len(rd.data)))
    factors = [_read_factor(rd, sec) for sec in layout]
    mid = len(layout) // 2
    *g_chain, u_outer = reversed(factors[:mid])
    *h_chain, v_outer = factors[mid + 1:]
    return ButterflyFactors(p, rank, u_outer, tuple(g_chain), factors[mid],
                            tuple(h_chain), v_outer)


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

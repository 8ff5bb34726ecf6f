"""Bit-exact binary serialization of factor chains and vectors.

Factor file layout (all little-endian), version 3:

    magic "BFAC" | version u32 | n u64 | levels u32 | rank u32 | count u32
    then per factor:
        kind u8 (0 leaf-left, 1 transfer-left, 2 middle, 3 transfer-right,
                 4 leaf-right) | level u32 | block_count u64
        then the factor's array in C order: <c16 of shape
        (nodes, pairs, t, k_out, 2k_in) for kinds 0, 1, 3 and 4, <f8 of
        shape (m, m, rank) for the middle weights (kind 2).

Factors appear in product order: leaf-left, transfer-left descending by
level, middle, transfer-right ascending, leaf-right.  The shapes follow
from n, levels and rank alone through
:func:`~butterfly.factors.chain_geometry`, so a factor is exactly its
in-memory array and block_count is the product of its leading axes
(nodes * pairs * t, or m * m).  Version 1 and 2 files are rejected.  Vector
files are a u64 length followed by that many complex f64 pairs.

On load the header and the file length are checked against :func:`_layout`
before the body is read, and every factor header before any array exists;
then each factor is read straight into its own aligned array, so the load
holds the file once, and checked for NaN and inf, the first bad block
reported at the byte where its payload starts.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import sys
from typing import NamedTuple

import numpy as np

from .factors import (ButterflyFactors, MiddleFactor, TransferFactor,
                      chain_geometry)
from .partition import DyadicPartition

MAGIC = b"BFAC"
VERSION = 3

KIND_U_OUTER = 0
KIND_G = 1
KIND_MIDDLE = 2
KIND_H = 3
KIND_V_OUTER = 4

_HEADER = "<4sIQIII"
_FACTOR_HEADER = "<BIQ"


class FormatError(ValueError):
    """Malformed factor or vector file; ``offset`` is the failing byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class _Factor(NamedTuple):
    """One factor of the file: its header fields and its array."""

    kind: int
    level: int
    count: int                  # blocks: the product of the leading axes
    dtype: np.dtype
    shape: tuple

    @property
    def nbytes(self) -> int:
        """File bytes of the factor: its header and its array."""
        return (struct.calcsize(_FACTOR_HEADER)
                + math.prod(self.shape) * self.dtype.itemsize)


def _layout(p: DyadicPartition, rank: int) -> list[_Factor]:
    """Every factor, in file order."""
    shapes = chain_geometry(p, rank)

    def side(kind, leaf_kind):
        return [_Factor(leaf_kind if lvl == p.levels else kind, lvl,
                        math.prod(shape[:3]), np.dtype("<c16"), shape)
                for lvl, shape in shapes]

    m = p.mid_nodes
    return (side(KIND_G, KIND_U_OUTER)[::-1]
            + [_Factor(KIND_MIDDLE, p.half, m * m, np.dtype("<f8"),
                       (m, m, rank))]
            + side(KIND_H, KIND_V_OUTER))


def save_factors(f: ButterflyFactors, path) -> None:
    """Write the chain so that save -> load -> save is byte-identical.

    Every array shape is checked against the geometry first, so a
    misshapen chain raises and leaves no file behind.
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
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HEADER, MAGIC, VERSION, f.n, f.partition.levels,
                             f.rank, len(layout)))
        for sec, array in zip(layout, arrays):
            fh.write(struct.pack(_FACTOR_HEADER, sec.kind, sec.level,
                                 sec.count))
            fh.write(np.ascontiguousarray(array, sec.dtype).data)


def _head(fh, size: int) -> bytes:
    head = fh.read(size)
    if len(head) < size:
        raise FormatError(f"truncated: file ends inside its {size}-byte "
                          f"header", len(head))
    return head


def _check_length(fh, size: int) -> None:
    """Match the file's length to the ``size`` its header implies, so a bad
    header never reads more than the header."""
    actual = os.fstat(fh.fileno()).st_size
    if actual != size:
        raise FormatError(f"file holds {actual} bytes, header implies "
                          f"{size}", min(size, actual))


def _read_into(fh, array: np.ndarray, first: int) -> np.ndarray:
    """Fill ``array`` with the file bytes from ``first`` on, byte-swapped
    from little-endian on a big-endian host."""
    fh.seek(first)
    if fh.readinto(memoryview(array).cast("B")) != array.nbytes:
        raise FormatError("file shrank while being read", first)
    if sys.byteorder != "little":
        array.byteswap(inplace=True)
    return array


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


def _check_factor_header(fh, sec: _Factor, start: int) -> None:
    fh.seek(start)
    header = fh.read(struct.calcsize(_FACTOR_HEADER))
    kind, level, declared = struct.unpack(_FACTOR_HEADER, header)
    if (kind, level) != (sec.kind, sec.level):
        raise FormatError(f"factor (kind, level) {(kind, level)}, expected "
                          f"({sec.kind}, {sec.level})", start)
    if declared != sec.count:
        raise FormatError(f"factor kind {sec.kind} declares {declared} "
                          f"blocks, geometry implies {sec.count}", start + 5)


def _read_factor(fh, sec: _Factor, first: int):
    """The factor whose array starts at byte ``first``, read straight into
    an aligned native array."""
    array = _read_into(fh, np.empty(sec.shape, sec.dtype.newbyteorder("=")),
                       first)
    if not np.isfinite(array).all():
        b = int(np.argmin(np.isfinite(array).reshape(sec.count, -1).all(1)))
        raise FormatError(f"block {b} of factor kind {sec.kind} holds NaN or "
                          f"inf", first + b * array.nbytes // sec.count)
    if sec.kind == KIND_MIDDLE:
        return MiddleFactor(array)
    return TransferFactor(sec.level, array)


def load_factors(path) -> ButterflyFactors:
    """Read a version-3 factor file; every header field is checked against
    the file length before the body is read or any array allocated."""
    with open(path, "rb") as fh:
        head = _head(fh, struct.calcsize(_HEADER))
        if head[:4] != MAGIC:
            raise FormatError("bad magic", 0)
        _, version, n, levels, rank, count = struct.unpack(_HEADER, head)
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", 4)
        p = _header_partition(n, levels, rank)
        layout = _layout(p, rank)
        if count != len(layout):
            raise FormatError(f"factor count {count} does not match geometry",
                              len(head) - 4)
        starts = list(itertools.accumulate(
            (sec.nbytes for sec in layout), initial=len(head)))
        _check_length(fh, starts[-1])
        for sec, start in zip(layout, starts):
            _check_factor_header(fh, sec, start)
        factors = [_read_factor(fh, sec,
                                start + struct.calcsize(_FACTOR_HEADER))
                   for sec, start in zip(layout, starts)]
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
        head = _head(fh, 8)
        (count,) = struct.unpack("<Q", head)
        _check_length(fh, len(head) + 16 * count)
        return _read_into(fh, np.empty(count, np.complex128), len(head))

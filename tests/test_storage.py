import dataclasses
import hashlib
import math
import struct
import tracemalloc

import numpy as np
import pytest

from butterfly import (ButterflyFactors, FioKernel, MiddleFactor,
                       TransferFactor, factorize, factors_equal, load_factors,
                       make_partition, read_vector, save_factors, write_vector)
from butterfly.factors import chain_geometry
from butterfly.storage import FormatError

from conftest import complex_gaussian


@pytest.fixture(scope="module")
def factors():
    n = 64
    return factorize(FioKernel(n), make_partition(n, 0.25), 3, seed=2)


def test_save_load_save_is_byte_identical(factors, tmp_path):
    first = tmp_path / "a.bfac"
    second = tmp_path / "b.bfac"
    save_factors(factors, first)
    save_factors(load_factors(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_roundtrip_preserves_apply_bitwise(factors, tmp_path, rng):
    path = tmp_path / "f.bfac"
    save_factors(factors, path)
    loaded = load_factors(path)
    assert factors_equal(factors, loaded)
    g = complex_gaussian(rng, factors.n)
    assert np.array_equal(factors.apply(g), loaded.apply(g))


def test_factors_equal_tells_signed_zeros_apart(factors):
    # -0.0 equals +0.0 as a value, but the two write different .bfac bytes
    weights = factors.middle.weights.copy()
    weights.flat[0] = 0.0
    signed = weights.copy()
    signed.flat[0] = -0.0
    a, b = (dataclasses.replace(factors, middle=MiddleFactor(w))
            for w in (weights, signed))
    assert np.array_equal(a.middle.weights, b.middle.weights)
    assert factors_equal(a, dataclasses.replace(a))
    assert not factors_equal(a, b)


def test_truncated_file_reports_offset(factors, tmp_path):
    path = tmp_path / "f.bfac"
    save_factors(factors, path)
    data = path.read_bytes()
    cut = len(data) // 2
    path.write_bytes(data[:cut])
    with pytest.raises(FormatError) as err:
        load_factors(path)
    assert err.value.offset <= cut


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bfac"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError) as err:
        load_factors(path)
    assert err.value.offset == 0


def test_trailing_bytes_rejected(factors, tmp_path):
    path = tmp_path / "f.bfac"
    save_factors(factors, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError):
        load_factors(path)


def test_vector_roundtrip(tmp_path, rng):
    g = complex_gaussian(rng, 37)
    path = tmp_path / "v.vec"
    write_vector(path, g)
    assert path.stat().st_size == 8 + 16 * 37
    assert np.array_equal(read_vector(path), g)


def test_vector_truncation(tmp_path, rng):
    path = tmp_path / "v.vec"
    write_vector(path, complex_gaussian(rng, 8))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError):
        read_vector(path)


def _header(version=3, n=64, levels=8, rank=3, count=11):
    return b"BFAC" + struct.pack("<IQII", version, n, levels, rank) \
        + struct.pack("<I", count)


@pytest.mark.parametrize("header, offset", [
    (_header(version=1), 4),                       # padded layout, not read
    (_header(version=2), 4),                       # per-block records
    (_header(n=48, levels=2), 8),                  # n not a power of two
    (_header(n=64, levels=5), 8),                  # odd depth
    (_header(n=64, levels=2 ** 31), 16),           # depth bounded up front
    (_header(n=64, levels=8, rank=5), 20),         # rank above mid_side 4
    (_header(n=64, levels=8, rank=0), 20),
    (_header(count=12), 24),
    # a 2**32 x 1 leaf block (64 GiB): the file ends long before it
    (_header(n=2 ** 34, levels=2, rank=1, count=5), 28 + 64),
])
def test_bad_header_fields_rejected(tmp_path, header, offset):
    path = tmp_path / "f.bfac"
    path.write_bytes(header + b"\x00" * 64)
    with pytest.raises(FormatError) as err:
        load_factors(path)
    assert err.value.offset == offset


def test_huge_header_rejected_before_allocating(tmp_path):
    # n = 2**34 would ask for hundreds of GiB; the size check runs first
    path = tmp_path / "f.bfac"
    path.write_bytes(_header(n=2 ** 34, levels=68, rank=1, count=71)
                     + b"\x00" * 64)
    with pytest.raises(FormatError) as err:
        load_factors(path)
    assert err.value.offset == 28 + 64  # the file ends long before the data


def test_reordered_factors_rejected(factors, tmp_path):
    # swap the two leaf factor kinds: same sizes, wrong product order
    path = tmp_path / "f.bfac"
    save_factors(factors, path)
    data = bytearray(path.read_bytes())
    assert data[28] == 0
    data[28] = 4
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as err:
        load_factors(path)
    assert err.value.offset == 28


#: sha256 of ``arange_chain(make_partition(64, 0.25), 3)`` in version 3;
#: any change to the bytes fails.
GOLDEN_SHA256 = \
    "22a343be1d769934723dafd40c99b4e4ad533d0e06dc8eb97d6f8483b1aecbb6"


def arange_chain(p, rank):
    """Chain with every array filled from a running arange in file order:
    deterministic bytes without any LAPACK call."""
    *shapes, (leaf, leaf_shape) = chain_geometry(p, rank)
    start = 0

    def values(shape):
        nonlocal start
        k = np.arange(start, start + math.prod(shape), dtype=float)
        start += k.size
        return k.reshape(shape)

    def cplx(shape):
        k = values(shape)
        return (k + 0.5) / 3.0 - 1j * k / 7.0

    u = TransferFactor(leaf, cplx(leaf_shape))
    g = tuple(TransferFactor(lvl, cplx(shape)) for lvl, shape in shapes)
    mid = MiddleFactor((values((p.mid_nodes, p.mid_nodes, rank)) + 1.0) / 5.0)
    h = tuple(TransferFactor(lvl, cplx(shape)) for lvl, shape in shapes)
    v = TransferFactor(leaf, cplx(leaf_shape))
    return ButterflyFactors(p, rank, u, g, mid, h, v)


def record_sections(p, rank):
    """(first payload byte, block count, block bytes) per factor in file
    order, from the documented format alone."""
    complex_ = [(math.prod(s[:3]), 16 * s[3] * s[4])
                for _, s in reversed(chain_geometry(p, rank))]
    middle = [(p.mid_nodes ** 2, 8 * rank)]
    sections, offset = [], 28
    for count, size in complex_ + middle + complex_[::-1]:
        sections.append((offset + 13, count, size))
        offset += 13 + count * size
    return sections


@pytest.fixture
def golden(tmp_path):
    p = make_partition(64, 0.25)
    path = tmp_path / "golden.bfac"
    save_factors(arange_chain(p, 3), path)
    return p, path


def test_bytes_match_frozen_digest(golden):
    p, path = golden
    data = path.read_bytes()
    first, count, size = record_sections(p, 3)[-1]
    assert len(data) == first + count * size == 151723
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256
    assert factors_equal(load_factors(path), arange_chain(p, 3))


@pytest.mark.parametrize("factor, bad", [(3, np.nan), (5, np.inf),
                                         (9, -np.inf)])
def test_non_finite_payload_reports_its_block(golden, factor, bad):
    # factors 3 and 9 are left level 5 and right level 6; 5 is the middle
    p, path = golden
    first, count, size = record_sections(p, 3)[factor]
    block = count - 2
    start = first + block * size
    data = bytearray(path.read_bytes())
    struct.pack_into("<d", data, start + size - 8, bad)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=f"block {block} .*NaN or inf") \
            as err:
        load_factors(path)
    assert err.value.offset == start


def test_loaded_arrays_are_aligned_and_contiguous(factors, tmp_path):
    # payloads sit at odd file offsets; a zero-copy view would be misaligned
    path = tmp_path / "f.bfac"
    save_factors(factors, path)
    loaded = load_factors(path)
    arrays = [loaded.middle.weights] + [tf.blocks for side in loaded.sides
                                        for tf in side]
    for array in arrays:
        assert array.flags.c_contiguous and array.flags.aligned
        assert array.flags.owndata and array.dtype.isnative


def test_save_rejects_misshapen_chain_before_writing(factors, tmp_path):
    # transposed blocks hold the right number of entries in the wrong shape
    path = tmp_path / "f.bfac"
    top = factors.g_chain[-1]
    assert top.blocks.shape[-1] != top.blocks.shape[-2]
    swapped = TransferFactor(top.level, top.blocks.swapaxes(-1, -2))
    bad = dataclasses.replace(factors, g_chain=(*factors.g_chain[:-1], swapped))
    with pytest.raises(ValueError):
        save_factors(bad, path)
    assert not path.exists()


def test_save_holds_the_file_once(tmp_path):
    # each factor's array is written as it is, with no copy of the file
    n = 256
    f = factorize(FioKernel(n), make_partition(n, 0.25), 4, seed=0)
    path = tmp_path / "f.bfac"
    tracemalloc.start()
    try:
        save_factors(f, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_load_holds_the_file_once(tmp_path):
    # each factor is read straight into its own array; reading the whole
    # file into one bytes object and copying every factor out peaked at 2x
    n = 256
    f = factorize(FioKernel(n), make_partition(n, 0.25), 4, seed=0)
    path = tmp_path / "f.bfac"
    save_factors(f, path)
    tracemalloc.start()
    try:
        loaded = load_factors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factors_equal(loaded, f)
    assert peak < 1.5 * path.stat().st_size


@pytest.mark.parametrize("read, header", [
    (load_factors, _header()),
    (read_vector, struct.pack("<Q", 4)),
], ids=["factors", "vector"])
def test_long_tail_rejected_before_reading(tmp_path, read, header):
    # a valid header and 32 MB behind it: the length check reads no body
    path = tmp_path / "f.bin"
    with open(path, "wb") as fh:
        fh.write(header)
        fh.truncate(len(header) + 32 * 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20

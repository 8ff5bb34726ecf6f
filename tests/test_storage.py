import struct

import numpy as np
import pytest

from butterfly import (FioKernel, factorize, factors_equal, load_factors,
                       make_partition, read_vector, save_factors,
                       write_vector)
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


def _header(version=2, n=64, levels=8, rank=3, count=11):
    return b"BFAC" + struct.pack("<IQII", version, n, levels, rank) \
        + struct.pack("<I", count)


@pytest.mark.parametrize("header, offset", [
    (_header(version=1), 4),                       # padded layout, not read
    (_header(n=48, levels=2), 8),                  # n not a power of two
    (_header(n=64, levels=5), 8),                  # odd depth
    (_header(n=64, levels=2 ** 31), 16),           # depth bounded up front
    (_header(n=64, levels=8, rank=5), 20),         # rank above mid_side 4
    (_header(n=64, levels=8, rank=0), 20),
    (_header(count=12), 24),
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

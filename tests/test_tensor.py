import struct

import numpy as np
import pytest

from dcn2.errors import FormatError, ShapeError, SizeError
from dcn2.tensor import (
    MAGIC,
    Tensor,
    alloc,
    read_tensor,
    write_tensor,
)


def test_alloc_zero_fill():
    t = alloc((1, 1, 2, 2), 0.0)
    assert t.dims == (1, 1, 2, 2)
    assert np.all(t.data == 0.0)


def test_alloc_zero_extent_is_valid():
    t = alloc((1, 3, 0, 5), 7.0)
    assert t.dims == (1, 3, 0, 5)
    assert t.size == 0


def test_alloc_fill_sum_counts_elements():
    t = alloc((2, 2, 2, 2), 1.0)
    assert t.sum() == 16.0


def test_alloc_rejects_negative_extent():
    with pytest.raises(ShapeError):
        alloc((1, -1, 2, 2))


def test_alloc_overflow_is_size_error():
    with pytest.raises(SizeError):
        alloc((2**40, 2**40, 1, 1))


def test_flat_index_layout_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(25):
        dims = tuple(int(v) for v in rng.integers(1, 5, size=4))
        n, c, h, w = dims
        t = Tensor(rng.normal(size=dims).astype(np.float32))
        flat = t.data.reshape(-1)
        for _ in range(10):
            i = tuple(int(rng.integers(0, d)) for d in dims)
            idx = ((i[0] * c + i[1]) * h + i[2]) * w + i[3]
            assert idx < flat.size
            assert flat[idx] == t.data[i]


def test_write_layout_and_byte_count():
    t = alloc((1, 1, 1, 1), 2.5)
    buf = write_tensor(t)
    assert len(buf) == 8 + 16 + 4
    assert buf[:8] == MAGIC
    assert struct.unpack("<4I", buf[8:24]) == (1, 1, 1, 1)
    assert buf[24:] == struct.pack("<f", 2.5)


def test_round_trip_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        dims = tuple(int(v) for v in rng.integers(0, 6, size=4))
        t = Tensor(rng.normal(size=dims).astype(np.float32))
        assert read_tensor(write_tensor(t)) == t


def test_round_trip_preserves_nan_payload_bits():
    raw = np.array([np.nan, -np.nan, np.inf, 1.0], dtype=np.float32)
    # a non-default NaN payload
    raw_bits = raw.view(np.uint32).copy()
    raw_bits[0] = 0x7FC00123
    t = Tensor(raw_bits.view(np.float32).reshape(1, 1, 2, 2))
    back = read_tensor(write_tensor(t))
    assert back.data.tobytes() == t.data.tobytes()


def test_truncated_payload_reports_offset():
    buf = write_tensor(alloc((1, 1, 1, 1), 2.5))
    with pytest.raises(FormatError) as err:
        read_tensor(buf[:-1])
    assert err.value.offset == 27


def test_bad_magic_reports_offset_of_mismatch():
    buf = bytearray(write_tensor(alloc((1, 1, 1, 1), 0.0)))
    buf[3] ^= 0xFF
    with pytest.raises(FormatError) as err:
        read_tensor(bytes(buf))
    assert err.value.offset == 3


def test_trailing_garbage_rejected():
    buf = write_tensor(alloc((1, 1, 1, 1), 0.0)) + b"x"
    with pytest.raises(FormatError) as err:
        read_tensor(buf)
    assert err.value.offset == 28


def test_truncated_header_rejected():
    with pytest.raises(FormatError):
        read_tensor(MAGIC + b"\x01\x00")

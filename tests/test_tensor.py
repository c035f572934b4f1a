import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcn2.errors import FormatError, ShapeError
from dcn2.tensor import MAGIC, read_tensor, write_tensor


def test_flat_index_layout_fuzz():
    rng = np.random.default_rng(0)
    for trial in range(25):
        dims = tuple(int(v) for v in rng.integers(2, 5, size=4))
        n, c, h, w = dims
        arr = rng.normal(size=dims)
        if trial % 2:  # memory order must not leak into the file
            arr = np.asfortranarray(arr)
        payload = write_tensor(arr)[len(MAGIC) + 16:]
        assert payload == arr.astype("<f4").tobytes(order="C")
        for _ in range(10):
            i = tuple(int(rng.integers(0, d)) for d in dims)
            idx = ((i[0] * c + i[1]) * h + i[2]) * w + i[3]
            assert payload[4 * idx: 4 * idx + 4] == arr[i].astype("<f4").tobytes()


def test_write_layout_and_byte_count():
    buf = write_tensor(np.full((1, 1, 1, 1), 2.5))
    assert len(buf) == 8 + 16 + 4
    assert buf[:8] == MAGIC
    assert struct.unpack("<4I", buf[8:24]) == (1, 1, 1, 1)
    assert buf[24:] == struct.pack("<f", 2.5)


@pytest.mark.parametrize("shape", [(2, 3, 4), (1, 1, 1, 1, 1), ()])
def test_write_rejects_non_4d(shape):
    with pytest.raises(ShapeError):
        write_tensor(np.zeros(shape, dtype=np.float32))


def test_round_trip_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        dims = tuple(int(v) for v in rng.integers(0, 6, size=4))
        arr = rng.normal(size=dims).astype(np.float32)
        back = read_tensor(write_tensor(arr))
        assert back.dtype == np.float32 and back.shape == dims
        assert back.flags.c_contiguous and back.flags.writeable
        assert back.tobytes() == arr.tobytes()


def test_round_trip_preserves_nan_payload_bits():
    raw = np.array([np.nan, -np.nan, np.inf, 1.0], dtype=np.float32)
    # a non-default NaN payload
    raw_bits = raw.view(np.uint32).copy()
    raw_bits[0] = 0x7FC00123
    arr = raw_bits.view(np.float32).reshape(1, 1, 2, 2)
    back = read_tensor(write_tensor(arr))
    assert back.tobytes() == arr.tobytes()


def test_truncated_payload_reports_offset():
    buf = write_tensor(np.full((1, 1, 1, 1), 2.5))
    with pytest.raises(FormatError) as err:
        read_tensor(buf[:-1])
    assert err.value.offset == 27


def test_bad_magic_reports_offset_of_mismatch():
    buf = bytearray(write_tensor(np.zeros((1, 1, 1, 1))))
    buf[3] ^= 0xFF
    with pytest.raises(FormatError) as err:
        read_tensor(bytes(buf))
    assert err.value.offset == 3


def test_trailing_garbage_rejected():
    buf = write_tensor(np.zeros((1, 1, 1, 1))) + b"x"
    with pytest.raises(FormatError) as err:
        read_tensor(buf)
    assert err.value.offset == 28


def test_truncated_header_rejected():
    with pytest.raises(FormatError):
        read_tensor(MAGIC + b"\x01\x00")


def test_extent_overflow_reports_offset_of_extents():
    # 2**16 * 2**16 * 2**16 * 2**14 = 2**62 elements
    buf = MAGIC + struct.pack("<4I", 2**16, 2**16, 2**16, 2**14)
    with pytest.raises(FormatError) as err:
        read_tensor(buf)
    assert err.value.offset == 8


def test_empty_extents_past_addressable_size_are_format_error():
    # no elements, but numpy cannot shape an array with these extents
    with pytest.raises(FormatError) as err:
        read_tensor(MAGIC + struct.pack("<4I", 0, 181928, 181938, 69663738))
    assert err.value.offset == 8
    assert read_tensor(MAGIC + struct.pack("<4I", 0, 2**32 - 1, 2**29, 1)).shape == \
        (0, 2**32 - 1, 2**29, 1)


def _headed(dims, tail):
    return MAGIC + struct.pack("<4I", *dims) + tail


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.builds(_headed,
              st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))] * 4),
              st.binary(max_size=200)),
))
def test_read_arbitrary_bytes_gives_array_or_format_error(buf):
    try:
        arr = read_tensor(buf)
    except FormatError:
        return
    assert arr.ndim == 4 and arr.dtype == np.float32
    assert write_tensor(arr) == buf


def test_write_rejects_extent_past_u32_header():
    # an empty array may still carry an extent that the u32 header cannot hold
    with pytest.raises(ShapeError, match="4294967296"):
        write_tensor(np.zeros((2**32, 0, 1, 1)))
    with pytest.raises(ShapeError, match="axis 3"):
        write_tensor(np.zeros((0, 1, 1, 2**33)))
    assert len(write_tensor(np.zeros((2**32 - 1, 0, 1, 1)))) == len(MAGIC) + 16

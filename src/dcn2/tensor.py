"""The `.dcnt` binary file format for dense 4-D (N, C, H, W) float32 arrays.

A file is the magic, four u32 little-endian extents, then the values as
float32 little-endian in C order: element (n, c, h, w) sits at flat index
((n*C + c)*H + h)*W + w.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, ShapeError

MAGIC = b"DCN2TENS"

# product of extents must stay addressable as a byte count on 64-bit hosts
_MAX_ELEMENTS = 2**61


def write_tensor(arr) -> bytes:
    """Serialize a 4-D array; its values are written as float32. Raises
    ShapeError for any other number of dimensions, or for an extent that does
    not fit the u32 header (possible when another extent is 0).
    """
    arr = np.asarray(arr)
    if arr.ndim != 4:
        raise ShapeError(f"tensor data must be 4-D (N,C,H,W), got ndim={arr.ndim}")
    for axis, extent in enumerate(arr.shape):
        if extent >= 2**32:
            raise ShapeError(f"extent {extent} of axis {axis} does not fit the u32 header")
    header = MAGIC + struct.pack("<4I", *arr.shape)
    return header + np.ascontiguousarray(arr, dtype="<f4").tobytes()


def read_tensor(buf: bytes) -> np.ndarray:
    """Parse the `write_tensor` layout into a writable, C-contiguous float32
    (N, C, H, W) array. Raises FormatError with the byte offset where parsing
    failed; round-trips are bit-identical (NaN payloads included).
    """
    buf = bytes(buf)
    if len(buf) < len(MAGIC):
        raise FormatError("truncated before magic", len(buf))
    if buf[: len(MAGIC)] != MAGIC:
        bad = next(i for i in range(len(MAGIC)) if buf[i] != MAGIC[i])
        raise FormatError(f"bad magic {buf[:len(MAGIC)]!r}", bad)
    if len(buf) < len(MAGIC) + 16:
        raise FormatError("truncated extent header", len(buf))
    dims = struct.unpack_from("<4I", buf, len(MAGIC))
    count = 1
    span = 1  # numpy addresses the non-zero extents even of an empty array
    for d in dims:
        count *= d
        span *= max(d, 1)
    if span > _MAX_ELEMENTS:
        raise FormatError(f"extents {dims} overflow addressable size", len(MAGIC))
    payload_start = len(MAGIC) + 16
    expected_end = payload_start + 4 * count
    if len(buf) < expected_end:
        raise FormatError(
            f"payload needs {4 * count} bytes for extents {dims}, data ends early",
            len(buf),
        )
    if len(buf) > expected_end:
        raise FormatError(f"{len(buf) - expected_end} trailing bytes after payload", expected_end)
    data = np.frombuffer(buf, dtype="<f4", count=count, offset=payload_start)
    return data.reshape(dims).astype(np.float32)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor(fh.read())


def save_tensor(arr, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_tensor(arr))

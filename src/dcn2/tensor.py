"""Dense 4-D (N, C, H, W) float32 tensor container and its binary file format.

Storage is always float32, row-major. Reductions run through float64
intermediates so downstream finite-difference comparisons stay quiet.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, ShapeError, SizeError

MAGIC = b"DCN2TENS"
FILE_EXTENSION = ".dcnt"

# product of extents must stay addressable as a byte count on 64-bit hosts
_MAX_ELEMENTS = 2**61


class Tensor:
    """A dense (N, C, H, W) float32 array. Element (n,c,h,w) lives at flat
    index ((n*C + c)*H + h)*W + w.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"tensor data must be 4-D (N,C,H,W), got ndim={arr.ndim}")
        self.data = np.ascontiguousarray(arr, dtype=np.float32)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def sum(self) -> float:
        return float(self.data.sum(dtype=np.float64))

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.dims == other.dims and self.data.tobytes() == other.data.tobytes()

    def __repr__(self) -> str:
        return f"Tensor(dims={self.dims})"


def alloc(dims: tuple[int, int, int, int], fill: float = 0.0) -> Tensor:
    """Allocate an (N, C, H, W) tensor with every element set to `fill`."""
    if len(dims) != 4:
        raise ShapeError(f"expected 4 extents, got {len(dims)}")
    if any(d < 0 for d in dims):
        raise ShapeError(f"extents must be non-negative, got {dims}")
    count = 1
    for d in dims:
        count *= int(d)
    if count > _MAX_ELEMENTS:
        raise SizeError(f"element count {count} exceeds addressable size")
    return Tensor(np.full(dims, fill, dtype=np.float32))


def write_tensor(t: Tensor) -> bytes:
    """Serialize: magic, four u32-LE extents, then float32-LE payload row-major."""
    header = MAGIC + struct.pack("<4I", *t.dims)
    return header + np.ascontiguousarray(t.data, dtype="<f4").tobytes()


def read_tensor(buf: bytes) -> Tensor:
    """Parse the `write_tensor` layout. Raises FormatError with the byte
    offset where parsing failed; round-trips are bit-identical (NaN payloads
    included).
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
    for d in dims:
        count *= d
    if count > _MAX_ELEMENTS:
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
    return Tensor(data.reshape(dims).copy())


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        return read_tensor(fh.read())


def save_tensor(t: Tensor, path) -> None:
    with open(path, "wb") as fh:
        fh.write(write_tensor(t))


def as_array(x) -> np.ndarray:
    """Unwrap a Tensor (or pass through an ndarray) for kernel-level code."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)

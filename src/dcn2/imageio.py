"""Binary PGM (P5) / PPM (P6) reading and writing, maxval <= 255."""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def _read_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        if buf[pos : pos + 1].isspace():
            pos += 1
        elif buf[pos : pos + 1] == b"#":
            while pos < n and buf[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("truncated image header", pos)
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def decode_netpbm(buf: bytes) -> np.ndarray:
    """Decode P5/P6 bytes to a float32 (C, H, W) array scaled to [0, 1]."""
    magic, pos = _read_token(buf, 0)
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"unsupported netpbm magic {magic!r}", 0)
    channels = 1 if magic == b"P5" else 3
    fields = []
    for _ in range(3):
        tok, pos = _read_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise FormatError(f"non-numeric header field {tok!r}", pos) from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"bad image extent {width}x{height}", pos)
    if not 0 < maxval <= 255:
        raise FormatError(f"maxval {maxval} unsupported (need 1..255)", pos)
    pos += 1  # single whitespace byte after maxval
    need = width * height * channels
    data = buf[pos : pos + need]
    if len(data) < need:
        raise FormatError(f"pixel payload needs {need} bytes", len(buf))
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.float32) / maxval
    return arr.reshape(height, width, channels).transpose(2, 0, 1)


def encode_pgm(plane: np.ndarray) -> bytes:
    """Encode an (H, W) array to binary PGM; float inputs are taken in [0,1]."""
    arr = np.asarray(plane)
    if arr.ndim != 2:
        raise FormatError(f"PGM wants a 2-D plane, got shape {arr.shape}", 0)
    if arr.dtype != np.uint8:
        arr = np.clip(np.round(arr.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape
    return b"P5\n%d %d\n255\n" % (w, h) + arr.tobytes()


def encode_mask_pgm(mask: np.ndarray) -> bytes:
    """Binary 0/255 PGM of a {0,1} mask."""
    return encode_pgm((np.asarray(mask) > 0).astype(np.uint8) * np.uint8(255))


def load_image(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_netpbm(fh.read())

"""Bilinear interpolation on (H, W) planes: values and analytic gradients
with respect to the plane and the sampling coordinate, and the sparse
sampling matrix and pixel layout that mdconv, mdpool and crop-and-resize all
sample through.

Bilinear weights do not depend on the channel, so sampling many positions of
a C-channel plane stack is one sparse product: `bilinear_corner_gather` lays
out, for every position, its 4 corner pixel indices and weights (and, for
backward, the weights' y/x derivatives on the same sparsity pattern), and
`sampling_matrix` wraps them as a CSR matrix S with 4 nonzeros per row, so
that S @ X^T, with X^T the (pixels, C) input, gives every sample of every
channel and S^T scatters gradients back onto the pixels.

`pixel_rows` and `pixel_map` own that layout, a map's (P, C) rows at
sorted flat positions and back, and `compute_dtype` the kernels' precision.

Out-of-bounds neighbors contribute zero (zero-padding convention). At exactly
integer coordinates the spatial derivative uses the floor cell (the cell to
the lower-right).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .errors import ArgumentError, ShapeError


def _check_point(y: float, x: float) -> None:
    if not (math.isfinite(y) and math.isfinite(x)):
        raise ArgumentError(f"sample point ({y}, {x}) must be finite")


def _corners(plane: np.ndarray, y: float, x: float):
    """The <=4 integer neighbors of (y, x) with their bilinear weights.

    Yields ((iy, ix), weight, value); out-of-bounds neighbors yield value 0
    and are flagged in_bounds=False.
    """
    h, w = plane.shape
    y0 = math.floor(y)
    x0 = math.floor(x)
    ly = y - y0
    lx = x - x0
    out = []
    for dy, wy in ((0, 1.0 - ly), (1, ly)):
        for dx, wx in ((0, 1.0 - lx), (1, lx)):
            iy, ix = y0 + dy, x0 + dx
            inside = 0 <= iy < h and 0 <= ix < w
            val = float(plane[iy, ix]) if inside else 0.0
            out.append(((iy, ix), wy * wx, val, inside))
    return out


def bilinear_sample(plane, pt) -> float:
    """Bilinear value of a single (H, W) plane at fractional point (y, x)."""
    arr = np.asarray(plane)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"expected a non-empty (H, W) plane, got shape {arr.shape}")
    y, x = pt
    _check_point(y, x)
    acc = 0.0
    for _, weight, val, _ in _corners(arr, y, x):
        acc += weight * val
    return acc


def bilinear_backward(plane, pt, upstream: float = 1.0):
    """Gradients of `upstream * bilinear_sample(plane, pt)`.

    Returns (grad_plane, grad_pt): grad_plane is a dict {(iy, ix): g} over the
    in-bounds neighbors, grad_pt is (dY, dX) from the analytic derivative of
    the bilinear surface.
    """
    arr = np.asarray(plane)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"expected a non-empty (H, W) plane, got shape {arr.shape}")
    y, x = pt
    _check_point(y, x)
    y0 = math.floor(y)
    x0 = math.floor(x)
    ly = y - y0
    lx = x - x0
    corners = _corners(arr, y, x)
    grad_plane = {}
    for (iy, ix), weight, _, inside in corners:
        if inside and weight != 0.0:
            grad_plane[(iy, ix)] = upstream * weight
    (_, _, v00, _), (_, _, v01, _), (_, _, v10, _), (_, _, v11, _) = corners
    dy = (v10 - v00) * (1.0 - lx) + (v11 - v01) * lx
    dx = (v01 - v00) * (1.0 - ly) + (v11 - v10) * ly
    return grad_plane, (upstream * dy, upstream * dx)


def bilinear_corner_gather(py: np.ndarray, px: np.ndarray, h: int, w: int,
                           flat_offset: np.ndarray | None = None,
                           scale: np.ndarray | None = None, derivatives: bool = False,
                           dtype=np.float64):
    """Sparse bilinear sampling pattern for a batch of fractional positions.

    py/px are float64 position arrays that broadcast to one shape (*pos) (a
    separable grid passes an (H', 1) column and a (1, W') row). For each
    position the pattern lists its 4 corners (0,0), (0,1), (1,0), (1,1) as
    (*pos, 4) arrays: `cols`, the flat pixel index of each corner (clipped
    into the plane), and `weights`, its bilinear weight times `scale`
    (broadcast against the positions) in `dtype`. `flat_offset`, broadcast the same way,
    is added to every index, so one pattern can address a stack of H*W
    planes; an empty position set gives empty arrays. With derivatives=True
    the pattern also carries the derivatives of the unscaled weights with
    respect to y and x. Out-of-bounds corners get
    weight 0 in every array, and at integer coordinates the derivative is
    that of the floor cell. Returns (cols, weights) or (cols, weights,
    dweights_y, dweights_x); `sampling_matrix` turns any weight array into a
    sparse matrix over the same columns.
    """
    y0 = np.floor(py)
    x0 = np.floor(px)
    ly = py - y0
    lx = px - x0
    top = int(np.max(flat_offset, initial=0)) if flat_offset is not None else 0
    index_dtype = np.int32 if top + h * w <= np.iinfo(np.int32).max else np.int64
    # clamp before the integer cast so that huge offsets cannot overflow it;
    # a floor of -2 or h (w) leaves both corner rows (columns) out of bounds
    iy = np.clip(y0, -2, h, out=y0).astype(index_dtype)
    ix = np.clip(x0, -2, w, out=x0).astype(index_dtype)
    iy1 = iy + 1
    ix1 = ix + 1
    # clipping moves exactly the out-of-bounds corners, which get weight 0
    row = (np.clip(iy, 0, h - 1), np.clip(iy1, 0, h - 1))
    col = (np.clip(ix, 0, w - 1), np.clip(ix1, 0, w - 1))
    vy = (row[0] == iy, row[1] == iy1)
    vx = (col[0] == ix, col[1] == ix1)
    for r in row:
        r *= w
        if flat_offset is not None:
            r += flat_offset
    cols = _corner_table(np.add, row, col, index_dtype)

    # per-axis factors with validity folded in: a corner's weight is its row
    # factor times its column factor
    fy = (np.where(vy[0], 1.0 - ly, 0.0), np.where(vy[1], ly, 0.0))
    fx = (np.where(vx[0], 1.0 - lx, 0.0), np.where(vx[1], lx, 0.0))
    scaled = fy if scale is None else (fy[0] * scale, fy[1] * scale)
    weights = _corner_table(np.multiply, scaled, fx, dtype)
    if not derivatives:
        return cols, weights
    sy = (np.where(vy[0], -1.0, 0.0), np.where(vy[1], 1.0, 0.0))
    sx = (np.where(vx[0], -1.0, 0.0), np.where(vx[1], 1.0, 0.0))
    return cols, weights, _corner_table(np.multiply, sy, fx, dtype), \
        _corner_table(np.multiply, fy, sx, dtype)


def _corner_table(op, rows, cols, dtype) -> np.ndarray:
    """(*pos, 4) array of op(row factor, column factor) in corner order.

    Filled corner by corner: numpy arithmetic broadcast along a trailing axis
    of length 4 runs several times slower than on the position arrays.
    """
    shape = np.broadcast_shapes(rows[0].shape, cols[0].shape)
    out = np.empty(shape + (4,), dtype=dtype)
    for corner in range(4):
        dy, dx = divmod(corner, 2)
        op(rows[dy], cols[dx], out=out[..., corner], casting="same_kind")
    return out


def sampling_matrix(cols: np.ndarray, data: np.ndarray, n_cols: int,
                    per_row: int = 4) -> sparse.csr_array:
    """CSR matrix whose row i holds entries per_row*i .. per_row*(i+1)-1 of
    the flattened (cols, data) pattern of `bilinear_corner_gather`.

    per_row=4 gives one row per sampled position; a multiple of 4 sums
    consecutive positions into one row. Rows follow the C order of the
    position array, columns index the flattened plane stack.
    """
    indices = cols.reshape(-1)
    indptr = np.arange(0, indices.size + 1, per_row, dtype=indices.dtype)
    return sparse.csr_array((data.reshape(-1), indices, indptr),
                            shape=(indptr.size - 1, n_cols))


def compute_dtype(x: np.ndarray) -> np.dtype:
    """float32 inputs run in single precision, everything else in double."""
    return np.dtype(np.float32) if x.dtype == np.float32 else np.dtype(np.float64)


def pixel_rows(a: np.ndarray, positions=None, dtype=None) -> np.ndarray:
    """(P, C) values of an (N, C, H, W) map, in `dtype` (a's own when None),
    at sorted flat positions b*H*W + i*W + j; every pixel, in that order,
    when `positions` is None or lists every position.
    """
    n, c, h, w = a.shape
    a = a.reshape(n, c, h * w)
    if positions is None or np.size(positions) == n * h * w:
        return np.ascontiguousarray(a.transpose(0, 2, 1), dtype=dtype).reshape(n * h * w, c)
    item, rc = np.divmod(np.asarray(positions, dtype=np.int64), h * w)
    rows = a[item, :, rc]
    return rows if dtype is None else rows.astype(dtype, copy=False)


def pixel_map(rows: np.ndarray, positions, shape, dtype=None) -> np.ndarray:
    """The (N, C, H, W) map of `shape`, in `dtype` (the rows' own when None),
    holding (P, C) `rows` at the sorted flat positions of `pixel_rows` and
    zero elsewhere.
    """
    n, c, h, w = shape
    if positions is None or np.size(positions) == n * h * w:
        return np.ascontiguousarray(rows.reshape(n, h, w, c).transpose(0, 3, 1, 2), dtype=dtype)
    out = np.zeros((n, c, h * w), dtype=rows.dtype if dtype is None else dtype)
    item, rc = np.divmod(np.asarray(positions, dtype=np.int64), h * w)
    out[item, :, rc] = rows
    return out.reshape(shape)

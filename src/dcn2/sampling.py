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
channel and S^T scatters gradients back onto the pixels. The gather is two
steps, which a caller can take apart to build the weight-free half once and
its tables more than once: `corner_base` (the corner indices, per-axis
factors and in-bounds flags) and `corner_weights` (the tables).

`pixel_rows` and `pixel_map` own that layout, a map's (P, C) rows at
sorted flat positions and back, and `compute_dtype` the kernels' precision.

Out-of-bounds neighbors contribute zero (zero-padding convention). At exactly
integer coordinates the spatial derivative uses the floor cell (the cell to
the lower-right).
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class CornerBase(NamedTuple):
    """The weight-free half of a bilinear sampling pattern (`corner_base`):
    per position, the flat pixel index of each of its 4 corners, the
    per-axis factors (1 - l, l) of its row and column, +0.0 for a line
    outside the plane, and whether each line lies inside.
    """

    cols: np.ndarray
    fy: tuple[np.ndarray, np.ndarray]
    fx: tuple[np.ndarray, np.ndarray]
    vy: tuple[np.ndarray, np.ndarray]
    vx: tuple[np.ndarray, np.ndarray]

    def select(self, index) -> CornerBase:
        """The base at positions `index` (a slice or index array) of the
        leading axis, which every array of the base must span.
        """
        return CornerBase(self.cols[index], *(tuple(a[index] for a in pair)
                                              for pair in (self.fy, self.fx, self.vy, self.vx)))


def corner_base(py: np.ndarray, px: np.ndarray, h: int, w: int,
                flat_offset: np.ndarray | None = None) -> CornerBase:
    """The corner base of a batch of fractional positions on an (h, w) plane.

    py/px are float64 position arrays that broadcast to one shape (*pos) (a
    separable grid passes an (H', 1) column and a (1, W') row). `cols`, a
    (*pos, 4) array, lists each position's corners (0,0), (0,1), (1,0),
    (1,1) as flat pixel indices clipped into the plane, plus `flat_offset`
    (broadcast the same way), so that one pattern can address a stack of
    H*W planes; the factors and flags keep the shapes of py and px. An empty
    position set gives empty arrays. `corner_weights` builds the pattern's
    weight tables from it.
    """
    y0 = np.floor(py)
    x0 = np.floor(px)
    ly = py - y0
    lx = px - x0
    top = 0 if flat_offset is None else int(flat_offset.max(initial=0))
    index_dtype = np.int32 if top + h * w < 2**31 else np.int64
    row, vy = _corner_lines(y0, h, index_dtype)
    col, vx = _corner_lines(x0, w, index_dtype)
    for r in row:
        r *= w
        if flat_offset is not None:
            r += flat_offset
    cols = _corner_table(np.add, row, col, np.broadcast(py, px).shape, index_dtype)

    # per-axis factors in [0, 1], +0.0 out of bounds: a corner's weight is its
    # row factor times its column factor
    fy = (1.0 - ly, ly)
    fx = (1.0 - lx, lx)
    for factor, inside in zip(fy + fx, vy + vx):
        factor *= inside
    return CornerBase(cols, fy, fx, vy, vx)


def corner_weights(base: CornerBase, scale: np.ndarray | None = None, derivatives: bool = False,
                   dtype=np.float64):
    """The weight tables of a corner base, each shaped like its `cols`, in
    `dtype`: each corner's bilinear weight times `scale` (broadcast against
    the positions), and with derivatives=True also the derivatives of the
    unscaled weights with respect to y and x. Out-of-bounds corners get
    weight 0 in every table, and at integer coordinates the derivative is
    that of the floor cell. Returns weights or (weights, dweights_y,
    dweights_x); `sampling_matrix` turns any table into a sparse matrix over
    the base's columns.
    """
    fy, fx, vy, vx = base.fy, base.fx, base.vy, base.vx
    scaled = fy if scale is None else (fy[0] * scale, fy[1] * scale)
    weights = _corner_table(np.multiply, scaled, fx, np.broadcast(scaled[0], fx[0]).shape, dtype)
    if not derivatives:
        return weights
    # a factor's slope: -1 for the first line, +1 for the second, +0.0 outside
    sy = (np.subtract(0.0, vy[0]), vy[1])
    sx = (np.subtract(0.0, vx[0]), vx[1])
    shape = base.cols.shape[:-1]
    return weights, _corner_table(np.multiply, sy, fx, shape, dtype), \
        _corner_table(np.multiply, fy, sx, shape, dtype)


def bilinear_corner_gather(py: np.ndarray, px: np.ndarray, h: int, w: int,
                           flat_offset: np.ndarray | None = None,
                           scale: np.ndarray | None = None, derivatives: bool = False,
                           dtype=np.float64):
    """Sparse bilinear sampling pattern for a batch of fractional positions:
    the columns of their `corner_base` and its `corner_weights`, as (cols,
    weights) or, with derivatives=True, (cols, weights, dweights_y,
    dweights_x).
    """
    base = corner_base(py, px, h, w, flat_offset)
    tables = corner_weights(base, scale, derivatives, dtype)
    return (base.cols, *tables) if derivatives else (base.cols, tables)


def _corner_lines(floor: np.ndarray, n: int, index_dtype):
    """The two grid lines around positions on an axis of n pixels, clamped
    into [0, n), and whether each lies inside. The float floors are clamped
    in place to [-2, n] first, so that huge ones cannot overflow the cast.
    """
    first = np.minimum(np.maximum(floor, -2, out=floor), n, out=floor).astype(index_dtype)
    second = first + 1
    lines = (np.maximum(first, 0), np.maximum(second, 0))
    for line in lines:
        np.minimum(line, n - 1, out=line)
    return lines, (lines[0] == first, lines[1] == second)


def _corner_table(op, rows, cols, shape, dtype) -> np.ndarray:
    """(*shape, 4) array of op(row factor, column factor) in corner order.

    Filled corner by corner: numpy arithmetic broadcast along a trailing axis
    of length 4 runs several times slower than on the position arrays.
    """
    out = np.empty(shape + (4,), dtype=dtype)
    for corner in range(4):
        dy, dx = divmod(corner, 2)
        op(rows[dy], cols[dx], out=out[..., corner])
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

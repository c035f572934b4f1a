"""Modulated deformable RoI pooling: y(k) = sum_j x(p_kj + dp_k) * dm_k / n_k.

Each RoI is divided into bins_h x bins_w bins; a bin averages n*n bilinear
samples placed at fractional positions (j+0.5)/n along each bin axis, shifted
by a per-bin learned offset and scaled by a per-bin modulation scalar. The
sibling branch (`roi_branch_forward`) produces those values from the plainly
pooled RoI features: two 1024-D fc layers with a ReLU between them, then an
fc to 3K outputs whose first 2K entries are offsets normalized by the RoI
height/width and whose last K pass through a sigmoid. The branch runs on all
R RoIs of a call at once, one (R, D) matrix product per fc layer forward and
backward in the compute dtype of its input; one RoI is the batch of one.

Offsets and modulation are the convolution's record,
`deform_conv.OffsetModulationField`, in its row form: R RoIs of K bins are
(R, 2K) offsets in absolute feature-map pixels, (dy_k, dx_k) pairs in
row-major bin order, and (R, K) modulation in [0, 1]. The pooling kernels
read it as float64 whatever its dtype.

RoI coordinates are continuous feature-map pixels, both edges inclusive; no
rounding anywhere.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .deform_conv import OffsetModulationField, is_integer, sigmoid
from .errors import ArgumentError, ShapeError
from .sampling import bilinear_corner_gather, compute_dtype, pixel_map, pixel_rows, sampling_matrix


@dataclass(frozen=True)
class RoI:
    batch_index: int
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not is_integer(self.batch_index):
            raise ArgumentError(f"RoI batch index must be an integer: {self}")
        if not all(math.isfinite(v) for v in (self.x1, self.y1, self.x2, self.y2)):
            raise ArgumentError(f"RoI coordinates must be finite: {self}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ArgumentError(f"degenerate RoI extents: {self}")

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def width(self) -> float:
        return self.x2 - self.x1


@dataclass(frozen=True)
class PoolSpec:
    """bins_h x bins_w bins (K total), samples x samples grid points per bin."""

    bins_h: int
    bins_w: int
    samples: int = 2

    def __post_init__(self):
        counts = (self.bins_h, self.bins_w, self.samples)
        if not all(is_integer(v) and v >= 1 for v in counts):
            raise ShapeError(f"bins and samples must be integers >= 1: {self}")

    @property
    def k(self) -> int:
        return self.bins_h * self.bins_w

    @property
    def n_k(self) -> int:
        return self.samples * self.samples


def _grid_positions(rois: list[RoI], spec: PoolSpec) -> tuple[np.ndarray, np.ndarray]:
    """(R, K, n_k) sampling positions p_kj of every RoI before the learned
    offset is added.
    """
    box = np.array([(roi.y1, roi.x1, roi.y2, roi.x2) for roi in rois],
                   dtype=np.float64).reshape(-1, 4)
    n = spec.samples
    frac = (np.arange(n, dtype=np.float64) + 0.5) / n
    by = np.arange(spec.bins_h, dtype=np.float64)[:, None] + frac  # (bins_h, n)
    bx = np.arange(spec.bins_w, dtype=np.float64)[:, None] + frac  # (bins_w, n)
    bh = (box[:, 2] - box[:, 0]) / spec.bins_h
    bw = (box[:, 3] - box[:, 1]) / spec.bins_w
    sy = box[:, 0, None, None] + by * bh[:, None, None]  # (R, bins_h, n)
    sx = box[:, 1, None, None] + bx * bw[:, None, None]  # (R, bins_w, n)
    shape = (len(box), spec.bins_h, spec.bins_w, n, n)
    py = np.broadcast_to(sy[:, :, None, :, None], shape)
    px = np.broadcast_to(sx[:, None, :, None, :], shape)
    return py.reshape(-1, spec.k, spec.n_k), px.reshape(-1, spec.k, spec.n_k)


def _identity_field(r: int, k: int) -> OffsetModulationField:
    """dp = 0 and modulation 1 for R RoIs of K bins: plain aligned pooling."""
    return OffsetModulationField(np.zeros((r, 2 * k)), np.ones((r, k)))


def _check_pool_args(x, rois, spec: PoolSpec, field: OffsetModulationField):
    """(x, field): x as an array, and the field, which must be the (R, 2K) /
    (R, K) rows of R RoIs of K bins, read as float64 whatever its dtype.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"input must be (N,C,H,W), got {x.shape}")
    if field.modulation.shape != (len(rois), spec.k):
        raise ShapeError(f"field modulation of shape {field.modulation.shape} for {len(rois)} "
                         f"RoIs of {spec.k} bins")
    return x, OffsetModulationField(*(a.astype(np.float64, copy=False)
                                      for a in (field.offsets, field.modulation)))


def _roi_planes(rois: list[RoI], n: int, hw: int) -> np.ndarray:
    """(R, 1, 1) offsets b*hw of each RoI's plane in a flat stack of n planes
    (a `flat_offset`); a batch index outside the stack raises ArgumentError.
    """
    for roi in rois:
        if not 0 <= roi.batch_index < n:
            raise ArgumentError(f"RoI batch index {roi.batch_index} outside batch of {n}")
    return np.array([roi.batch_index for roi in rois], dtype=np.int64).reshape(-1, 1, 1) * hw


def _sample_positions(rois: list[RoI], spec: PoolSpec, offsets: np.ndarray):
    """(R, K, n_k) bin sample positions (py, px) moved by (R, 2K) (dy_k, dx_k) pairs."""
    gy, gx = _grid_positions(rois, spec)
    return gy + offsets[:, 0::2, None], gx + offsets[:, 1::2, None]


def _pool_geometry(x: np.ndarray, rois: list[RoI], spec: PoolSpec, field: OffsetModulationField,
                   modulated: bool = False, derivatives: bool = False):
    """Sampling pattern of every (RoI, bin, sample) over the N*H*W pixels,
    in the compute dtype. The pattern's 4*n_k consecutive corners per bin
    make `sampling_matrix(..., per_row=4 * n_k)` sum a bin's samples in one
    row; modulated=True scales them by dm_k / n_k, so that row is the pooled
    bin.
    """
    n, _, h, w = x.shape
    py, px = _sample_positions(rois, spec, field.offsets)
    scale = (field.modulation / spec.n_k)[:, :, None] if modulated else None
    return bilinear_corner_gather(py, px, h, w, flat_offset=_roi_planes(rois, n, h * w),
                                  scale=scale, derivatives=derivatives,
                                  dtype=compute_dtype(x))


def _upstream_rows(x: np.ndarray, rois: list[RoI], spec: PoolSpec, upstream) -> np.ndarray:
    """The (R, C, bins_h, bins_w) upstream gradient as (R*K, C) float64 rows,
    one per bin, in the row order of the pooling pattern.
    """
    g = np.asarray(upstream)
    want = (len(rois), x.shape[1], spec.bins_h, spec.bins_w)
    if g.shape != want:
        raise ShapeError(f"upstream shape {g.shape} != {want}")
    return pixel_rows(g, dtype=np.float64)


def _scatter_to_pixels(cols, weights, gs: np.ndarray, x: np.ndarray, spec: PoolSpec):
    """grad_x = S^T gs, accumulated in float64, as a map in x's dtype."""
    n, _, h, w = x.shape
    grad_x = sampling_matrix(cols, weights, n * h * w, 4 * spec.n_k).T @ gs  # (N*H*W, C)
    return pixel_map(grad_x, None, x.shape, x.dtype)


def _pooled(cols, data, xt: np.ndarray, x: np.ndarray, spec: PoolSpec) -> np.ndarray:
    """The (R, C, bins_h, bins_w) map S X^T, in x's dtype, of a modulated pattern."""
    out = sampling_matrix(cols, data, xt.shape[0], per_row=4 * spec.n_k) @ xt  # (R*K, C)
    shape = (out.shape[0] // spec.k, x.shape[1], spec.bins_h, spec.bins_w)
    return pixel_map(out, None, shape, x.dtype)


def mdpool_forward(x, rois: list[RoI], spec: PoolSpec,
                   field: OffsetModulationField) -> np.ndarray:
    """Pooled output (R, C, bins_h, bins_w) for the field's (R, 2K)/(R, K) rows."""
    x, field = _check_pool_args(x, rois, spec, field)
    cols, data = _pool_geometry(x, rois, spec, field, modulated=True)
    return _pooled(cols, data, pixel_rows(x, dtype=compute_dtype(x)), x, spec)


def mdpool_backward(x, rois: list[RoI], spec: PoolSpec, field: OffsetModulationField,
                    upstream):
    """Analytic gradients (grad_x, grad_offsets (R, 2K), grad_modulation (R, K)).

    The offset gradient sums the coordinate gradients of all n_k samples in
    the bin scaled by dm_k / n_k; the modulation gradient is the unmodulated
    bin mean contracted against the upstream gradient over channels;
    grad_x is S^T (upstream * dm / n_k), accumulated in float64.
    """
    x, field = _check_pool_args(x, rois, spec, field)
    return _mdpool_backward(x, pixel_rows(x, dtype=compute_dtype(x)), rois, spec, field, upstream)


def _mdpool_backward(x, xt: np.ndarray, rois: list[RoI], spec: PoolSpec,
                     field: OffsetModulationField, upstream):
    """`mdpool_backward` on X^T. One product over the bins' interleaved weight,
    y- and x-derivative rows gives each bin sum in the order of its own product.
    """
    gk = _upstream_rows(x, rois, spec, upstream)
    r, k, per_bin = len(rois), spec.k, 4 * spec.n_k
    cols, weights, dwy, dwx = _pool_geometry(x, rois, spec, field, derivatives=True)
    data = np.stack([a.reshape(r * k, per_bin) for a in (weights, dwy, dwx)], axis=1)
    cols3 = np.broadcast_to(cols.reshape(r * k, 1, per_bin), data.shape)
    sums = sampling_matrix(cols3, data, xt.shape[0], per_bin) @ xt  # (3*R*K, C)
    sums = sums.reshape(r * k, 3, xt.shape[1])

    grad_mod = np.einsum("ij,ij->i", gk, sums[:, 0]).reshape(r, k) / spec.n_k
    # dL/d(sample), shared by a bin's samples
    gs = gk * (field.modulation.reshape(-1, 1) / spec.n_k)
    grad_off = np.empty((r, 2 * k), dtype=np.float64)
    grad_off[:, 0::2] = np.einsum("ij,ij->i", gs, sums[:, 1]).reshape(r, k)
    grad_off[:, 1::2] = np.einsum("ij,ij->i", gs, sums[:, 2]).reshape(r, k)
    return _scatter_to_pixels(cols, weights, gs, x, spec), grad_off, grad_mod


def aligned_pool_forward(x, rois: list[RoI], spec: PoolSpec) -> np.ndarray:
    """Plain aligned average pooling: dp = 0, dm = 1 for every bin."""
    return mdpool_forward(x, rois, spec, _identity_field(len(rois), spec.k))


def aligned_pool_reads(shape: tuple[int, int, int], rois: list[RoI], spec: PoolSpec) -> np.ndarray:
    """Sorted flat positions of an (N, H, W) map that `aligned_pool_forward`
    reads for `rois`: the pixels with a non-zero bilinear weight.
    """
    n, h, w = shape
    planes = _roi_planes(rois, n, h * w)
    cols, weights = bilinear_corner_gather(*_grid_positions(rois, spec), h, w, flat_offset=planes)
    return np.unique(cols[weights != 0]).astype(np.int64)


def aligned_pool_backward(x, rois: list[RoI], spec: PoolSpec, upstream) -> np.ndarray:
    """grad_x of `aligned_pool_forward`: S^T (upstream / n_k) on the plain
    pattern, bit for bit the grad_x of `mdpool_backward` with the identity field.
    """
    x, field = _check_pool_args(x, rois, spec, _identity_field(len(rois), spec.k))
    gk = _upstream_rows(x, rois, spec, upstream)
    cols, weights = _pool_geometry(x, rois, spec, field)
    return _scatter_to_pixels(cols, weights, gk * (1.0 / spec.n_k), x, spec)


# ---------------------------------------------------------------------------
# sibling branch: plain-pooled features -> per-bin offsets and modulation
# ---------------------------------------------------------------------------

@dataclass
class Affine:
    """weight (out, in) and bias (out,) of one fully-connected layer."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight)
        self.bias = np.asarray(self.bias)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(f"affine shapes {self.weight.shape} / {self.bias.shape}")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


def make_roi_branch(in_dim: int, k: int, hidden: int = 1024,
                    rng: np.random.Generator | None = None):
    """Branch weights: two Gaussian(0, 0.01) hidden fc layers (default 1024-D)
    and a zero-initialized output fc of 3K values, so the initial field is
    dp = 0, dm = 0.5.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    fc1 = Affine(rng.normal(0.0, 0.01, (hidden, in_dim)), np.zeros(hidden))
    fc2 = Affine(rng.normal(0.0, 0.01, (hidden, hidden)), np.zeros(hidden))
    out = Affine(np.zeros((3 * k, hidden)), np.zeros(3 * k))
    return fc1, fc2, out


@dataclass
class RoiBranchCache:
    """What `roi_branch_backward` needs from one forward over R RoIs: the
    (R, D) flattened inputs, the (R, hidden) ReLU output and second fc
    output in the compute dtype, the (R, K) modulation and the (R, 2K)
    (height, width) scales of the offsets. `pooled_shape` is the forward's.
    """

    pooled_shape: tuple
    z0: np.ndarray
    a1: np.ndarray
    z2: np.ndarray
    modulation: np.ndarray
    scale: np.ndarray


def roi_branch_forward(pooled, fc1: Affine, fc2: Affine, out_w: Affine,
                       rois: list[RoI]) -> tuple[OffsetModulationField, RoiBranchCache]:
    """The field of R RoIs, as (R, 2K)/(R, K) rows, from their plainly pooled
    (R, C, bins_h, bins_w) features, and the cache of `roi_branch_backward`.

    Each fc layer is one (R, D) matrix product in the compute dtype of
    `pooled` (`sampling.compute_dtype`); the field is float64, the sigmoid
    taken in the compute dtype and then cast. The first 2K
    outputs are offsets normalized by the RoI extent: pair k is multiplied
    elementwise by (height, width) to give absolute pixels.
    """
    dt = compute_dtype(np.asarray(pooled))
    p = np.asarray(pooled, dtype=dt)
    r, d = len(rois), fc1.weight.shape[1]
    if p.size != r * d or p.shape[:1] != (r,):
        raise ShapeError(f"fc1 expects {d} inputs per RoI, pooled is {p.shape} for {r} RoIs")
    if fc2.weight.shape[1] != fc1.out_dim:
        raise ShapeError("fc2 input dim != fc1 output dim")
    if out_w.weight.shape[1] != fc2.out_dim or out_w.out_dim % 3 != 0:
        raise ShapeError("output fc must take fc2 features and emit 3K values")
    k = out_w.out_dim // 3

    z0 = p.reshape(r, d)
    a1 = np.maximum(z0 @ np.asarray(fc1.weight, dt).T + np.asarray(fc1.bias, dt), 0.0)
    z2 = a1 @ np.asarray(fc2.weight, dt).T + np.asarray(fc2.bias, dt)
    raw = z2 @ np.asarray(out_w.weight, dt).T + np.asarray(out_w.bias, dt)

    extents = np.array([(roi.height, roi.width) for roi in rois], dtype=np.float64)
    scale = np.tile(extents.reshape(r, 2), k)  # (R, 2K): (height, width) per bin
    field = OffsetModulationField(raw[:, : 2 * k] * scale,
                                  sigmoid(raw[:, 2 * k :]).astype(np.float64))
    return field, RoiBranchCache(p.shape, z0, a1, z2, field.modulation, scale)


def roi_branch_backward(fc1: Affine, fc2: Affine, out_w: Affine, cache: RoiBranchCache,
                        grad_offsets, grad_modulation):
    """Gradients of the branch given (R, 2K) and (R, K) gradients on the
    absolute-pixel field.

    Returns (grad_pooled, (gw1, gb1), (gw2, gb2), (gwo, gbo)) in the
    forward's compute dtype. grad_pooled has the forward's pooled shape;
    each parameter gradient is one matrix product summed over the RoIs.
    """
    go = np.asarray(grad_offsets, dtype=np.float64)
    gm = np.asarray(grad_modulation, dtype=np.float64)
    if go.shape != cache.scale.shape or gm.shape != cache.modulation.shape:
        raise ShapeError(f"field gradients {go.shape} / {gm.shape} != "
                         f"{cache.scale.shape} / {cache.modulation.shape}")
    m, dt = cache.modulation, cache.z0.dtype
    grad_raw = np.concatenate([go * cache.scale, gm * m * (1.0 - m)], axis=1)  # (R, 3K)
    grad_raw = grad_raw.astype(dt, copy=False)

    gwo = grad_raw.T @ cache.z2
    gbo = grad_raw.sum(axis=0)
    gz2 = grad_raw @ np.asarray(out_w.weight, dt)
    gw2 = gz2.T @ cache.a1
    gb2 = gz2.sum(axis=0)
    gz1 = (gz2 @ np.asarray(fc2.weight, dt)) * (cache.a1 > 0)
    gw1 = gz1.T @ cache.z0
    gb1 = gz1.sum(axis=0)
    grad_pooled = gz1 @ np.asarray(fc1.weight, dt)
    return grad_pooled.reshape(cache.pooled_shape), (gw1, gb1), (gw2, gb2), (gwo, gbo)


# a deformable pooling step's forward record: X^T in the compute dtype and
# the aligned pattern, scaled by 1/n_k, serve its backward
DeformablePoolCache = namedtuple("DeformablePoolCache",
                                 "x rois field branch xt plain_cols plain_weights")


def _deformable_pool_forward(x, rois: list[RoI], spec: PoolSpec, fc1: Affine, fc2: Affine,
                             out_w: Affine) -> tuple[np.ndarray, DeformablePoolCache]:
    """`aligned_pool_forward`, `roi_branch_forward`, `mdpool_forward` over one X^T."""
    x, identity = _check_pool_args(x, rois, spec, _identity_field(len(rois), spec.k))
    xt = pixel_rows(x, dtype=compute_dtype(x))
    plain_cols, plain_weights = _pool_geometry(x, rois, spec, identity, modulated=True)
    field, branch = roi_branch_forward(_pooled(plain_cols, plain_weights, xt, x, spec),
                                       fc1, fc2, out_w, rois)
    cols, data = _pool_geometry(x, rois, spec, field, modulated=True)
    return _pooled(cols, data, xt, x, spec), DeformablePoolCache(
        x, rois, field, branch, xt, plain_cols, plain_weights)


def _deformable_pool_backward(cache: DeformablePoolCache, spec: PoolSpec, fc1: Affine,
                              fc2: Affine, out_w: Affine, upstream):
    """(grad_x, the branch's parameter gradient pairs) of `mdpool_backward`,
    `roi_branch_backward`, `aligned_pool_backward` on the forward's X^T and
    aligned pattern; grad_x is bit for bit theirs when n_k is a power of two.
    """
    x, rois, field, branch, xt, plain_cols, plain_weights = cache
    gx, goff, gmod = _mdpool_backward(x, xt, rois, spec, field, upstream)
    grad_plain, *grads = roi_branch_backward(fc1, fc2, out_w, branch, goff, gmod)
    gx += _scatter_to_pixels(plain_cols, plain_weights,
                             pixel_rows(grad_plain, dtype=np.float64), x, spec)
    return gx, grads

"""Modulated deformable convolution: y(p) = sum_k w_k * x(p + p_k + dp_k) * dm_k.

Two implementations share one contract: a readable per-position reference
kernel (`mdconv_forward` / `mdconv_backward`) and a vectorized one
(`*_optimized`). The vectorized kernels, and the dense convolution of the
offset branch, work on one geometry unit: a sorted list of flat output
positions, index b*H_out*W_out + i*W_out + j of output (b, i, j). Per chunk
of the list the mdconv kernels build the sparse sampling matrix S
(`sampling.sampling_matrix`, one row per (position, tap), modulation folded
into its data); S @ X^T reshapes for free to (positions, K*C_in), and one
GEMM with the weights gives the output. `sampling` owns the layout, the
(pixels, C) operand X^T and a map's rows at a list (`pixel_rows`) and back
(`pixel_map`), and the precision rule (`compute_dtype`).

- A call given `positions` works on (P, C) rows at those positions, in the
  layout of `sampling.pixel_rows`: the field, the output, the upstream and
  the field gradients are rows, and only the input gradient is a map.
  Without them a call works on (N, C, H_out, W_out) maps and computes every
  position, which is the all-positions list (the dense convolution then
  keeps its strided im2col view).
- The mdconv backward computes only the live output positions, those where
  any channel of the upstream gradient is non-zero (NaN and inf count as
  live). A dead position gets exact-zero offset and modulation gradients
  and adds nothing to grad_x or grad_w. It rebuilds the live positions'
  pattern together with the weights' coordinate derivatives and scatters
  grad_x through S^T in float64, each chunk into the window of pixels its
  pattern reads. The offset branch's backward runs its dense convolution at
  the positions the field was computed at, whatever the field gradients
  hold: a whole map always takes the full-map im2col path.

So RoI heads and single-unit probes, which read a few positions, pay only
for those: `net.Sequential.forward` works out what a head demands and runs
the last deformable layer on that list.

Offsets and modulation come from a sibling regular convolution
(`offset_branch_forward`) with 3K output channels, zero-initialized so
training starts at dp=0, dm=0.5. A 2K-channel branch is the unmodulated
DCNv1 operator, the special case dm = 1.

Offset channel layout is pinned for file compatibility: channel pair
(2k, 2k+1) holds (dy_k, dx_k) for tap k in row-major kernel order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import runtime
from .errors import ArgumentError, ShapeError
from .sampling import (bilinear_backward, bilinear_corner_gather, bilinear_sample, compute_dtype,
                       pixel_map, pixel_rows, sampling_matrix)

# learning-rate multiplier carried by offset/modulation branch weights (the
# descriptor asserted by tests; applied by the optimizer in net.py)
BRANCH_LR_MULTIPLIER = 0.1


def is_integer(v) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel geometry: K taps enumerated row-major. Before any offset, tap
    (u, v) of output position (i, j) reads input pixel
    (i*stride_h - pad_h + u*dil_h, j*stride_w - pad_w + v*dil_w), the
    lattice point p + p_k; `taps_at` gives these for a position list.
    """

    kernel_h: int
    kernel_w: int
    stride: tuple[int, int] = (1, 1)
    pad: tuple[int, int] = (0, 0)
    dilation: tuple[int, int] = (1, 1)

    def __post_init__(self):
        pairs = (self.stride, self.pad, self.dilation)
        if not (is_integer(self.kernel_h) and is_integer(self.kernel_w) and all(
                isinstance(p, tuple) and len(p) == 2 and all(map(is_integer, p)) for p in pairs)):
            raise ShapeError(f"kernel extents and stride/pad/dilation pairs must be integers: "
                             f"{self}")
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ShapeError(f"kernel {self.kernel_h}x{self.kernel_w} must be >= 1")
        if min(self.stride) < 1 or min(self.dilation) < 1 or min(self.pad) < 0:
            raise ShapeError("stride/dilation must be >= 1 and pad >= 0")

    @property
    def k(self) -> int:
        return self.kernel_h * self.kernel_w

    def taps_at(self, positions, out_hw: tuple[int, int]):
        """(item (P,), rows (P, kh), cols (P, kw)) of sorted flat positions
        b*H_out*W_out + i*W_out + j of an (N, H_out, W_out) output map: tap
        (u, v) of position p reads unpadded input pixel (rows[p, u],
        cols[p, v]) of item[p] before any offset. Rows and columns outside
        the input are in the zero padding.
        """
        h_out, w_out = out_hw
        item, rc = np.divmod(np.asarray(positions, dtype=np.int64), h_out * w_out)
        row, col = np.divmod(rc, w_out)
        (sh, sw), (ph, pw), (dh, dw) = self.stride, self.pad, self.dilation
        # built tap-major: a broadcast whose inner axis is the short tap
        # axis runs several times slower
        rows = (np.arange(self.kernel_h)[:, None] * dh + (row * sh - ph)).T
        cols = (np.arange(self.kernel_w)[:, None] * dw + (col * sw - pw)).T
        return item, rows, cols

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        kh, kw = self.kernel_h, self.kernel_w
        sh, sw = self.stride
        ph, pw = self.pad
        dh, dw = self.dilation
        h_out = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
        w_out = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1
        if h_out < 0 or w_out < 0:
            raise ShapeError(f"kernel does not fit input {h}x{w} with spec {self}")
        return h_out, w_out


@dataclass
class ConvWeights:
    """Main convolution weights (C_out, C_in, kh, kw) and bias (C_out,); a
    convolution without a bias passes zeros.
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight)
        if self.weight.ndim != 4:
            raise ShapeError(f"weights must be 4-D, got shape {self.weight.shape}")
        self.bias = np.asarray(self.bias)
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(f"bias shape {self.bias.shape} != ({self.weight.shape[0]},)")

    def check_spec(self, spec: KernelSpec, c_in: int) -> None:
        c_out, ci, kh, kw = self.weight.shape
        if ci != c_in or (kh, kw) != (spec.kernel_h, spec.kernel_w):
            raise ShapeError(
                f"weights {self.weight.shape} inconsistent with C_in={c_in}, "
                f"kernel {spec.kernel_h}x{spec.kernel_w}"
            )


@dataclass
class OffsetModulationField:
    """Learned offsets (N, 2K, H_out, W_out) and modulation (N, K, H_out, W_out),
    or under a position list their (P, 2K) and (P, K) rows.

    Channel pair (2k, 2k+1) is (dy_k, dx_k); modulation lies in [0, 1] and is
    shared across all input and output channels at each spatial location.
    """

    offsets: np.ndarray
    modulation: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets)
        self.modulation = np.asarray(self.modulation)
        if self.offsets.ndim not in (2, 4) or self.modulation.ndim != self.offsets.ndim:
            raise ShapeError("offset/modulation fields must be 4-D maps or 2-D rows")
        lead, twok, *hw = self.offsets.shape
        if twok % 2 != 0:
            raise ShapeError(f"offset channel count {twok} must be even (2K)")
        if self.modulation.shape != (lead, twok // 2, *hw):
            raise ShapeError(
                f"modulation shape {self.modulation.shape} != {(lead, twok // 2, *hw)}"
            )
        # written so that NaN fails the range test
        if not ((self.modulation >= 0.0) & (self.modulation <= 1.0)).all():
            raise ArgumentError("modulation values must lie in [0, 1]")
        if self.offsets.size and not np.isfinite(self.offsets).all():
            raise ArgumentError("offsets must be finite")


def _check_conv_args(x, w: ConvWeights, spec: KernelSpec, upstream=None, positions=None):
    """Validated (x, N, C_in, H, W, H_out, W_out, positions) of a convolution,
    `positions` as `_check_positions` gives them, checking an `upstream`
    gradient, when given, against the output's shape: the map, or with
    positions its (P, C_out) rows.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"input must be (N,C,H,W), got shape {x.shape}")
    n, c_in, h, win = x.shape
    w.check_spec(spec, c_in)
    h_out, w_out = spec.out_size(h, win)
    positions = _check_positions(positions, n * h_out * w_out)
    c_out = w.weight.shape[0]
    out_shape = (n, c_out, h_out, w_out) if positions is None else (positions.size, c_out)
    if upstream is not None and np.shape(upstream) != out_shape:
        raise ShapeError(f"upstream shape {np.shape(upstream)} != {out_shape}")
    return x, n, c_in, h, win, h_out, w_out, positions


def _check_mdconv_args(x, w: ConvWeights, spec: KernelSpec, field: OffsetModulationField,
                       upstream=None, positions=None):
    """`_check_conv_args`, and the field's shape."""
    x, n, c_in, h, win, h_out, w_out, positions = _check_conv_args(x, w, spec, upstream,
                                                                   positions)
    twok = 2 * spec.k
    want = (n, twok, h_out, w_out) if positions is None else (positions.size, twok)
    if field.offsets.shape != want:
        raise ShapeError(f"field offsets {field.offsets.shape} != {want}")
    return x, n, c_in, h, win, h_out, w_out, positions


def _check_positions(positions, size: int) -> np.ndarray | None:
    """`positions` as int64 flat positions into a map of `size` positions;
    None when it is None. It must be a strictly increasing 1-D integer list
    inside the map.
    """
    if positions is None:
        return None
    p = np.asarray(positions)
    if p.ndim != 1 or (p.size and p.dtype.kind not in "iu"):
        raise ArgumentError(f"positions must be a 1-D integer list, got {p.dtype} {p.shape}")
    p = p.astype(np.int64, copy=False)
    if p.size and (p[0] < 0 or p[-1] >= size or (p.size > 1 and (p[1:] <= p[:-1]).any())):
        raise ArgumentError(f"positions must increase strictly within [0, {size})")
    return p


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, kept a gemm for a one-row a: numpy sends a one-row product to
    gemv, which rounds unlike the gemm of a many-row one. A zero second row
    keeps it a gemm.
    """
    if a.shape[0] != 1:
        return a @ b
    return (np.concatenate([a, np.zeros(a.shape, a.dtype)]) @ b)[:1]


# ---------------------------------------------------------------------------
# reference kernel: one bilinear sample at a time
# ---------------------------------------------------------------------------

def mdconv_forward(x, w: ConvWeights, spec: KernelSpec, field: OffsetModulationField) -> np.ndarray:
    x, n, c_in, h, win, h_out, w_out, _ = _check_mdconv_args(x, w, spec, field)
    c_out = w.weight.shape[0]
    (sh, sw), (ph, pw), (dh, dw) = spec.stride, spec.pad, spec.dilation
    wk = w.weight.reshape(c_out, c_in, spec.k).astype(np.float64)

    out = np.zeros((n, c_out, h_out, w_out), dtype=np.float64)
    for b in range(n):
        for i in range(h_out):
            for j in range(w_out):
                sampled = np.zeros((c_in, spec.k), dtype=np.float64)
                for k in range(spec.k):
                    u, v = divmod(k, spec.kernel_w)
                    sy = i * sh - ph + u * dh + float(field.offsets[b, 2 * k, i, j])
                    sx = j * sw - pw + v * dw + float(field.offsets[b, 2 * k + 1, i, j])
                    m = float(field.modulation[b, k, i, j])
                    for ci in range(c_in):
                        sampled[ci, k] = bilinear_sample(x[b, ci], (sy, sx)) * m
                out[b, :, i, j] = wk.reshape(c_out, c_in * spec.k) @ sampled.reshape(-1)
    out += np.asarray(w.bias, dtype=np.float64)[None, :, None, None]
    return out.astype(x.dtype)


def mdconv_backward(x, w: ConvWeights, spec: KernelSpec, field: OffsetModulationField,
                    upstream) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of the reference forward: (grad_x, grad_w, grad_bias,
    grad_offsets, grad_modulation). The offset gradient routes through the
    bilinear coordinate derivative scaled by w_k * dm_k.
    """
    x, n, c_in, h, win, h_out, w_out, _ = _check_mdconv_args(x, w, spec, field, upstream)
    g = np.asarray(upstream)
    c_out = w.weight.shape[0]
    (sh, sw), (ph, pw), (dh, dw) = spec.stride, spec.pad, spec.dilation
    wk = w.weight.reshape(c_out, c_in, spec.k).astype(np.float64)

    grad_x = np.zeros((n, c_in, h, win), dtype=np.float64)
    grad_w = np.zeros((c_out, c_in, spec.k), dtype=np.float64)
    grad_b = g.sum(axis=(0, 2, 3), dtype=np.float64)
    grad_off = np.zeros_like(field.offsets, dtype=np.float64)
    grad_mod = np.zeros_like(field.modulation, dtype=np.float64)

    for b in range(n):
        for i in range(h_out):
            for j in range(w_out):
                gvec = g[b, :, i, j].astype(np.float64)
                for k in range(spec.k):
                    u, v = divmod(k, spec.kernel_w)
                    sy = i * sh - ph + u * dh + float(field.offsets[b, 2 * k, i, j])
                    sx = j * sw - pw + v * dw + float(field.offsets[b, 2 * k + 1, i, j])
                    m = float(field.modulation[b, k, i, j])
                    # per-channel chain through the bilinear surface
                    gk = wk[:, :, k].T @ gvec  # (c_in,) = dL/d(sample*m) per channel
                    gdy = 0.0
                    gdx = 0.0
                    for ci in range(c_in):
                        val = bilinear_sample(x[b, ci], (sy, sx))
                        grad_w[:, ci, k] += gvec * val * m
                        grad_mod[b, k, i, j] += gk[ci] * val
                        gplane, (dy, dx) = bilinear_backward(x[b, ci], (sy, sx), gk[ci] * m)
                        for (iy, ix), gv in gplane.items():
                            grad_x[b, ci, iy, ix] += gv
                        gdy += dy
                        gdx += dx
                    grad_off[b, 2 * k, i, j] = gdy
                    grad_off[b, 2 * k + 1, i, j] = gdx
    return (
        grad_x.astype(x.dtype),
        grad_w.reshape(w.weight.shape).astype(x.dtype),
        grad_b.astype(x.dtype),
        grad_off.astype(x.dtype),
        grad_mod.astype(x.dtype),
    )


# ---------------------------------------------------------------------------
# optimized kernel: sparse sampling matrix + GEMM over row blocks
# ---------------------------------------------------------------------------

# element budget (C_in * K * positions) per work chunk: a backward chunk's float64
# S^T operand is at most 8 MB. Small problems run as one whole-batch chunk,
# large ones split into per-item blocks of rows
_CHUNK_BUDGET = 1_000_000


def _chunks(positions: np.ndarray, c_in: int, k: int, h_out: int, w_out: int):
    """Tasks (n0, n1, s0, s1) covering the sorted flat output positions:
    positions[s0:s1], within items n0 .. n1-1. One task when the whole list
    fits the budget, else per-item blocks of as many positions as the
    budget's whole output rows hold, so that the all-positions list splits
    into row blocks.
    """
    hw = h_out * w_out
    if positions.size * c_in * k <= _CHUNK_BUDGET:
        bounds = [(0, positions.size)] if positions.size else []
    else:
        block = max(1, _CHUNK_BUDGET // (c_in * k * w_out)) * w_out
        starts = np.flatnonzero(np.diff(positions // hw)) + 1
        items = zip([0, *starts.tolist()], [*starts.tolist(), positions.size])
        bounds = [(i, min(i + block, i1)) for i0, i1 in items for i in range(i0, i1, block)]
    return [(int(positions[s0] // hw), int(positions[s1 - 1] // hw) + 1, s0, s1)
            for s0, s1 in bounds]


class _ConvGeometry:
    """Shared sampling-matrix machinery for the optimized kernels, over one
    sorted list of flat output positions and the field's (P, 2K) offset and
    (P, K) modulation rows there.

    Everything per position is kept position-major, (P, K), so a chunk's
    sampling matrix has one row per (position, tap) and its product with the
    `pixel_rows` of the chunk's items reshapes for free to the
    (positions, K*C_in) operand of the GEMM.
    """

    def __init__(self, x, w: ConvWeights, spec: KernelSpec, offsets, modulation,
                 positions: np.ndarray, out_hw: tuple[int, int]):
        self.dtype = compute_dtype(x)
        _, self.c_in, self.h, self.w_in = x.shape
        c_out = w.weight.shape[0]
        # (K*C_in, C_out), rows in the (tap, channel) order of a sampled row
        self.wmat = np.ascontiguousarray(
            w.weight.reshape(c_out, self.c_in, spec.k).transpose(2, 1, 0),
            dtype=self.dtype).reshape(spec.k * self.c_in, c_out)
        self.bias = np.asarray(w.bias, dtype=self.dtype)
        self.item, rows, cols = spec.taps_at(positions, out_hw)
        # (P, K) in row-major tap order: tap (u, v) offsets rows[:, u], cols[:, v]
        offs = offsets.astype(np.float64, copy=False).reshape(-1, spec.kernel_h, spec.kernel_w, 2)
        self.py = (rows[:, :, None] + offs[..., 0]).reshape(-1, spec.k)
        self.px = (cols[:, None, :] + offs[..., 1]).reshape(-1, spec.k)
        self.mods = modulation.astype(np.float64, copy=False)
        # X^T of the items the list spans, (items, H*W, C_in), built once for all chunks
        self.first = int(self.item[0])
        self.xt = pixel_rows(x[self.first : int(self.item[-1]) + 1], dtype=self.dtype).reshape(
            -1, self.h * self.w_in, self.c_in)

    def pattern(self, n0: int, s0: int, s1: int, derivatives: bool = False):
        """Sampling pattern of positions s0 .. s1-1 of the list, (P, K) in
        compute dtype; items count from n0, the first item of the chunk's
        pixel rows. Modulated, or unmodulated with the weights' y/x derivatives.
        """
        offset = ((self.item[s0:s1] - n0) * (self.h * self.w_in))[:, None]
        return bilinear_corner_gather(
            self.py[s0:s1], self.px[s0:s1], self.h, self.w_in, flat_offset=offset,
            scale=None if derivatives else self.mods[s0:s1], derivatives=derivatives,
            dtype=self.dtype)


def mdconv_forward_optimized(x, w: ConvWeights, spec: KernelSpec,
                             field: OffsetModulationField, positions=None) -> np.ndarray:
    """Same contract as mdconv_forward. Per chunk, one sparse product with the
    modulated sampling matrix gathers every tap, and one GEMM applies the
    weights. Output writes are disjoint across chunks, so the result is
    independent of thread count.

    With `positions`, a sorted list of flat output positions, only those are
    computed: the field comes as its rows there and the output as (P, C_out)
    rows. Sampling still reads the whole input, since offsets can land
    anywhere.
    """
    x, n, c_in, h, win, h_out, w_out, positions = _check_mdconv_args(x, w, spec, field,
                                                                     positions=positions)
    c_out = w.weight.shape[0]
    listed = np.arange(n * h_out * w_out) if positions is None else positions
    rows = np.empty((listed.size, c_out), dtype=x.dtype)
    if x.size == 0 or rows.size == 0:
        rows[...] = w.bias
    else:
        offs, mods = field.offsets, field.modulation
        if positions is None:
            offs, mods = pixel_rows(offs, dtype=np.float64), pixel_rows(mods, dtype=np.float64)
        geo = _ConvGeometry(x, w, spec, offs, mods, listed, (h_out, w_out))
        k = spec.k

        def do_chunk(task):
            n0, n1, s0, s1 = task
            cols, data = geo.pattern(n0, s0, s1)
            xt = geo.xt[n0 - geo.first : n1 - geo.first].reshape(-1, c_in)
            sampled = sampling_matrix(cols, data, xt.shape[0]) @ xt
            res = _gemm(sampled.reshape(s1 - s0, k * c_in), geo.wmat)
            res += geo.bias
            rows[s0:s1] = res

        for _ in runtime.run_chunks(do_chunk, _chunks(listed, c_in, k, h_out, w_out)):
            pass
    return rows if positions is not None else pixel_map(rows, None, (n, c_out, h_out, w_out))


def mdconv_backward_optimized(x, w: ConvWeights, spec: KernelSpec,
                              field: OffsetModulationField, upstream, positions=None,
                              input_grad: bool = True):
    """Vectorized analytic gradients; same return signature as mdconv_backward.

    Only live output positions are computed: those where any channel of the
    upstream G is non-zero, NaN and inf included, so that non-finite values
    still propagate. Every other position contributes exactly nothing, and
    gets zero offset and modulation gradients; an all-zero upstream builds
    no pattern at all.

    With `positions` (see `mdconv_forward_optimized`) the field and the
    upstream are rows there, and so are the offset and modulation gradients.
    With input_grad=False grad_x is None and S^T is never applied.

    With S the modulated sampling matrix of a chunk of live positions, S0
    the unmodulated one and Sy/Sx its coordinate derivatives:
    dL/d(modulated sample) = G W; grad_x = S^T (G W), taken as
    S0^T (G W * m) in float64; offset gradients contract G W * m with Sy X^T
    and Sx X^T; modulation gradients contract G W with S0 X^T; grad_w =
    (S X^T)^T G. A chunk's matrices span only the pixel rows its pattern
    reads, and so does its grad_x partial sum. Partial sums of
    grad_x/grad_w/grad_bias are added in chunk order, so the result is
    bit-identical for any thread count.
    """
    x, n, c_in, h, win, h_out, w_out, positions = _check_mdconv_args(x, w, spec, field,
                                                                     upstream, positions)
    g = np.asarray(upstream)
    c_out = w.weight.shape[0]

    k = spec.k
    # float64 (N*H*W, C_in) rows of grad_x, in X^T's layout
    grad_x = np.zeros((n * h * win, c_in)) if input_grad else None
    grad_w = np.zeros((k * c_in, c_out), dtype=np.float64)
    grad_b = np.zeros(c_out, dtype=np.float64)
    # position-major: row r holds (dy, dx) per tap, and the modulation
    # gradient per tap, of the upstream's row r (flat position r of a map)
    n_rows = g.shape[0] if positions is not None else n * h_out * w_out
    grad_off = np.zeros((n_rows, k, 2), dtype=x.dtype)
    grad_mod = np.zeros((n_rows, k), dtype=x.dtype)

    def finish():
        gw = grad_w.reshape(k, c_in, c_out).transpose(2, 1, 0).reshape(w.weight.shape)
        goff, gmod = grad_off.reshape(n_rows, 2 * k), grad_mod
        if positions is None:
            goff = pixel_map(goff, None, field.offsets.shape)
            gmod = pixel_map(gmod, None, field.modulation.shape)
        gx = None if grad_x is None else pixel_map(grad_x, None, x.shape, x.dtype)
        return gx, gw.astype(x.dtype), grad_b.astype(x.dtype), goff, gmod

    if x.size == 0 or g.size == 0:
        grad_b += g.sum(axis=0 if positions is not None else (0, 2, 3), dtype=np.float64)
        return finish()

    # live: any channel non-zero; `!= 0` holds for NaN, so non-finite values stay live
    at = np.flatnonzero((g != 0).any(axis=1))
    live = at if positions is None else positions[at]
    tasks = _chunks(live, c_in, k, h_out, w_out)
    if not tasks:
        return finish()
    if positions is None:
        g_live, offs, mods = (pixel_rows(a, at) for a in (g, field.offsets, field.modulation))
    else:
        g_live, offs, mods = g[at], field.offsets[at], field.modulation[at]
    geo = _ConvGeometry(x, w, spec, offs, mods, live, (h_out, w_out))

    def do_chunk(task):
        # products are scaled in place and dropped once read (README, Conventions)
        n0, n1, s0, s1 = task
        rows = at[s0:s1]
        cols, weights, dwy, dwx = geo.pattern(n0, s0, s1, derivatives=True)
        lo, hi = int(cols.min()), int(cols.max()) + 1  # the pixel rows the pattern reads
        cols -= lo
        xt = geo.xt[n0 - geo.first : n1 - geo.first].reshape(-1, c_in)[lo:hi]
        n_cols = hi - lo
        s0_mat = sampling_matrix(cols, weights, n_cols)
        samples = s0_mat @ xt
        m = geo.mods[s0:s1].reshape(-1, 1).astype(geo.dtype)
        gmat = g_live[s0:s1].astype(geo.dtype, copy=False)

        gs = _gemm(gmat, geo.wmat.T).reshape(-1, c_in)  # dL/d(sample * m)
        grad_mod[rows] = np.einsum("ij,ij->i", gs, samples).reshape(-1, k)
        gs *= m  # dL/d(sample)
        for axis, dw in enumerate((dwy, dwx)):
            grad_off[rows, :, axis] = np.einsum(
                "ij,ij->i", gs, sampling_matrix(cols, dw, n_cols) @ xt).reshape(-1, k)

        # partial sums that may overlap across chunks
        samples *= m
        gw = samples.reshape(-1, k * c_in).T @ gmat
        del samples
        gb = gmat.sum(axis=0)
        gx = s0_mat.T @ gs.astype(np.float64) if input_grad else None
        return n0 * h * win + lo, gx, gw, gb

    for start, gx, gw, gb in runtime.run_chunks(do_chunk, tasks):
        if input_grad:
            # a scatter starts from +0.0: it holds no -0.0 that 0 + gx could flip
            grad_x[start : start + len(gx)] += gx
        grad_w += gw
        grad_b += gb
    return finish()


# ---------------------------------------------------------------------------
# regular (rigid) convolution, im2col style: used by the offset branch and
# by rigid layers in toy networks
# ---------------------------------------------------------------------------

def _padded_patches(x: np.ndarray, spec: KernelSpec, out_hw: tuple[int, int], dtype):
    """(xp, patches): x zero-padded by spec.pad in `dtype`, and the strided
    (N, C, kh, kw, H_out, W_out) view of xp, its im2col matrix without a copy
    (numpy checks that the view stays inside xp).
    """
    n, c, h, w = x.shape
    (sh, sw), (ph, pw), (dh, dw) = spec.stride, spec.pad, spec.dilation
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=dtype)
    xp[:, :, ph : ph + h, pw : pw + w] = x
    sb, sc, srow, scol = xp.strides
    return xp, np.ndarray((n, c, spec.kernel_h, spec.kernel_w, *out_hw), dtype, xp,
                          strides=(sb, sc, dh * srow, dw * scol, sh * srow, sw * scol))


def _im2col_rows(x: np.ndarray, spec: KernelSpec, positions: np.ndarray,
                 out_hw: tuple[int, int], dtype):
    """(rows, index, inside): the (P, C*kh*kw) im2col rows of the flat output
    positions in (channel, tap) order and `dtype`, read from the unpadded
    input at flat indices `index`, and the (P, 1, kh*kw) mask of the taps
    inside it; a tap in the zero padding reads zero at index 0.
    """
    (p,), (c, h, w), (dh, dw), k = positions.shape, x.shape[1:], spec.dilation, spec.k
    item, rows, cols = spec.taps_at(positions, out_hw)
    # every position's taps lie where those of output (0, 0) lie from its
    # first tap; one (P, C*K) add is several times cheaper than a broadcast
    # over the short tap axes
    first = (item * (c * h) + rows[:, 0]) * w + cols[:, 0]
    step = ((np.arange(c)[:, None] * h + np.arange(spec.kernel_h) * dh)[:, :, None] * w
            + np.arange(spec.kernel_w) * dw)
    index = first[:, None] + step.reshape(-1)
    inside = (((rows >= 0) & (rows < h))[:, :, None]
              & ((cols >= 0) & (cols < w))[:, None, :]).reshape(p, 1, k)
    np.multiply(index.reshape(p, c, k), inside, out=index.reshape(p, c, k))
    patch = x.reshape(-1)[index].astype(dtype, copy=False)
    np.copyto(patch.reshape(p, c, k), 0, where=~inside)
    return patch, index, inside


def dense_conv_forward(x, w: ConvWeights, spec: KernelSpec, positions=None) -> np.ndarray:
    """Regular zero-padded strided dilated convolution (vectorized). With
    `positions`, a sorted list of flat output positions, only those are
    computed, as a GEMM over their im2col rows, and the output is their
    (P, C_out) rows.
    """
    x, n, _, _, _, h_out, w_out, positions = _check_conv_args(x, w, spec, positions=positions)
    dtype = compute_dtype(x)
    wmat = w.weight.reshape(w.weight.shape[0], -1).astype(dtype, copy=False)
    bias = np.asarray(w.bias, dtype=dtype)
    if positions is not None and positions.size < n * h_out * w_out:
        res = _gemm(_im2col_rows(x, spec, positions, (h_out, w_out), dtype)[0], wmat.T)
        res += bias
        return res.astype(x.dtype, copy=False)
    cols = _padded_patches(x, spec, (h_out, w_out), dtype)[1]
    out = np.matmul(wmat, cols.reshape(n, wmat.shape[1], h_out * w_out))
    out += bias[None, :, None]
    out = out.reshape(n, wmat.shape[0], h_out, w_out).astype(x.dtype, copy=False)
    return out if positions is None else pixel_rows(out)


def dense_conv_backward(x, w: ConvWeights, spec: KernelSpec, upstream, positions=None,
                        input_grad: bool = True):
    """Gradients (grad_x, grad_w, grad_bias) of
    `dense_conv_forward(x, w, spec, positions)`. With `positions` the
    upstream is the (P, C_out) rows there, only those output positions are
    computed, from their im2col rows, and grad_x is scattered from the rows
    in float64. Over the full map grad_x adds each tap's W_uv^T G into the
    padded gradient, never building an im2col-sized one. With
    input_grad=False grad_x is None.
    """
    x, n, c, h, win, h_out, w_out, positions = _check_conv_args(x, w, spec, upstream, positions)
    dtype = compute_dtype(x)
    g = np.asarray(upstream).astype(dtype, copy=False)
    kh, kw = spec.kernel_h, spec.kernel_w
    (sh, sw), (ph, pw), (dh, dw) = spec.stride, spec.pad, spec.dilation
    c_out = w.weight.shape[0]
    wmat = w.weight.reshape(c_out, -1).astype(dtype, copy=False)

    if positions is not None and positions.size == n * h_out * w_out:
        g, positions = pixel_map(g, None, (n, c_out, h_out, w_out)), None
    grad_x = None
    if positions is None:
        xp, cols = _padded_patches(x, spec, (h_out, w_out), dtype)
        gmat = g.reshape(n, c_out, h_out * w_out)
        cols = cols.reshape(n, c * kh * kw, h_out * w_out)
        grad_w = np.tensordot(gmat, cols, axes=([0, 2], [0, 2])).reshape(w.weight.shape)
        grad_b = g.sum(axis=(0, 2, 3), dtype=np.float64)
        if input_grad:
            gxp = np.zeros(xp.shape, dtype=dtype)
            # tap (u, v) of output (i, j) reads padded pixel (u*dh + i*sh, v*dw + j*sw)
            for u, v in np.ndindex(kh, kw):
                gxp[:, :, u * dh : u * dh + sh * h_out : sh,
                    v * dw : v * dw + sw * w_out : sw] += np.matmul(
                        wmat[:, u * kw + v :: kh * kw].T, gmat).reshape(n, c, h_out, w_out)
            grad_x = gxp[:, :, ph : ph + h, pw : pw + win]
    else:
        patch, index, inside = _im2col_rows(x, spec, positions, (h_out, w_out), dtype)
        grad_w = (g.T @ patch).reshape(w.weight.shape)
        grad_b = g.sum(axis=0, dtype=np.float64)
        if input_grad:
            grad_patch = _gemm(g, wmat)  # the padding taps' gradients drop out
            np.copyto(grad_patch.reshape(positions.size, c, spec.k), 0, where=~inside)
            grad_x = np.bincount(index.reshape(-1), weights=grad_patch.reshape(-1),
                                 minlength=x.size).reshape(x.shape)
    return (
        None if grad_x is None else grad_x.astype(x.dtype),
        grad_w.astype(x.dtype),
        grad_b.astype(x.dtype),
    )


# ---------------------------------------------------------------------------
# offset/modulation branch: a sibling regular convolution with 3K channels
# ---------------------------------------------------------------------------

def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic sigmoid of a float32 or float64 array, in its dtype."""
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: e never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _branch_k(branch_w: ConvWeights, spec: KernelSpec) -> tuple[int, bool]:
    """(K, modulated) of a branch: 3K output channels are modulated, 2K are not."""
    k = spec.k
    channels = branch_w.weight.shape[0]
    if channels not in (2 * k, 3 * k):
        raise ShapeError(
            f"offset branch must output 3K={3 * k} or 2K={2 * k} channels, got {channels}"
        )
    return k, channels == 3 * k


def offset_branch_forward(x, branch_w: ConvWeights, spec: KernelSpec,
                          positions=None) -> OffsetModulationField:
    """Regular convolution producing 3K channels: the first 2K are offsets
    verbatim, the last K pass through a logistic sigmoid to give modulation.
    Zero weights (the standard init) therefore yield dp=0, dm=0.5 exactly.
    A 2K-channel branch is the unmodulated (DCNv1) case: offsets only, with
    the modulation fixed at 1. With `positions` (see `dense_conv_forward`)
    the field is computed only there and comes as its rows, so the sigmoid
    and the field's checks run on those rows alone.
    """
    x = np.asarray(x)
    k, modulated = _branch_k(branch_w, spec)
    raw = dense_conv_forward(x, branch_w, spec, positions)
    modulation = sigmoid(raw[:, 2 * k :]) if modulated else np.ones_like(raw[:, :k])
    return OffsetModulationField(raw[:, : 2 * k], modulation)


def offset_branch_backward(x, branch_w: ConvWeights, spec: KernelSpec,
                           field: OffsetModulationField, grad_offsets, grad_modulation,
                           positions=None, input_grad: bool = True):
    """Gradients (grad_x, grad_branch_w, grad_branch_bias) given gradients on
    the produced field, of its shapes: maps, or with `positions` rows there.
    Modulation grads are pulled back through the sigmoid of a 3K branch; a
    2K branch has no modulation channels to reach. The branch-output
    gradient is formed in x's compute dtype, and the branch convolution's
    backward runs at the positions the field was computed at, whatever the
    gradients hold. With input_grad=False grad_x is None.
    """
    k, modulated = _branch_k(branch_w, spec)
    shapes = (np.shape(grad_offsets), np.shape(grad_modulation))
    if shapes != (field.offsets.shape, field.modulation.shape):
        raise ShapeError(f"field gradients {shapes[0]} / {shapes[1]} != the field's "
                         f"{field.offsets.shape} / {field.modulation.shape}")
    dtype = compute_dtype(np.asarray(x))
    grad_raw = np.asarray(grad_offsets).astype(dtype, copy=False)
    if modulated:
        gm = np.asarray(grad_modulation).astype(dtype, copy=False)
        m = field.modulation.astype(dtype, copy=False)
        grad_raw = np.concatenate([grad_raw, gm * m * (1.0 - m)], axis=1)
    return dense_conv_backward(x, branch_w, spec, grad_raw, positions, input_grad)

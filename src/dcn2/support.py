"""Spatial-support analysis: effective receptive fields, effective sampling
locations, and error-bounded saliency regions.

The saliency optimizer minimizes the mask area subject to a hard bound on the
reconstruction loss between node features on the masked and original image
(masked-out pixels are set to 0). It runs the two-step search: grow a
centered rectangle in even area increments until the bound holds, then
segment into superpixels and greedily remove the superpixel whose removal
raises the error least, stopping when any further removal would break the
bound. Vector nodes use one minus cosine similarity as the loss; scalar
nodes use relative absolute difference (an extension, the cosine form only
being defined for feature vectors).
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .deform_conv import is_integer, mdconv_backward_optimized
from .deform_roipool import mdpool_backward
from .errors import ArgumentError, CapabilityError, ConvergenceError, ShapeError, UsageError
from .mimic import cosine_mimic_loss
from .net import DeformConv2dLayer, RoIPoolLayer, Sequential


def _chw(image) -> np.ndarray:
    arr = np.asarray(image)
    if arr.ndim != 3:
        raise ShapeError(f"expected (C,H,W) image, got shape {arr.shape}")
    return arr.astype(np.float64)


class NodeProbe:
    """A deterministic closure from an image to a node response.

    `fn(image)` returns a scalar or a 1-D feature vector; `grad_fn(image)`,
    when available, returns the image-shaped gradient of the scalarized
    response (the response itself for scalar nodes, the vector's L2 norm for
    vector nodes).
    """

    def __init__(self, fn, grad_fn=None, name: str = "probe"):
        self._fn = fn
        self._grad_fn = grad_fn
        self.name = name

    @property
    def differentiable(self) -> bool:
        return self._grad_fn is not None

    def response(self, image) -> np.ndarray:
        out = np.asarray(self._fn(_chw(image)), dtype=np.float64)
        return out.reshape(-1)

    def gradient(self, image) -> np.ndarray:
        if self._grad_fn is None:
            raise CapabilityError(f"probe {self.name!r} exposes no gradient")
        return np.asarray(self._grad_fn(_chw(image)), dtype=np.float64)


# ---------------------------------------------------------------------------
# probe builders
# ---------------------------------------------------------------------------

def window_probe(y0: int, x0: int, h: int, w: int) -> NodeProbe:
    """Vector node: the raw pixels of a window (all channels)."""

    def fn(img):
        return img[:, y0 : y0 + h, x0 : x0 + w].reshape(-1)

    def grad_fn(img):
        f = fn(img)
        n = np.linalg.norm(f)
        g = np.zeros_like(img)
        if n > 0:
            g[:, y0 : y0 + h, x0 : x0 + w] = (f / n).reshape(img.shape[0], h, w)
        return g

    return NodeProbe(fn, grad_fn, name=f"window[{y0}:{y0+h},{x0}:{x0+w}]")


def window_mean_probe(y0: int, x0: int, h: int, w: int) -> NodeProbe:
    """Scalar node: the mean over a window (all channels)."""

    def fn(img):
        return img[:, y0 : y0 + h, x0 : x0 + w].mean()

    def grad_fn(img):
        g = np.zeros_like(img)
        g[:, y0 : y0 + h, x0 : x0 + w] = 1.0 / (img.shape[0] * h * w)
        return g

    return NodeProbe(fn, grad_fn, name=f"window-mean[{y0}:{y0+h},{x0}:{x0+w}]")


def constant_probe() -> NodeProbe:
    return NodeProbe(lambda img: 1.0, lambda img: np.zeros_like(img), name="const")


def network_probe(trunk: Sequential, y: int, x: int) -> NodeProbe:
    """Vector node: the channel vector of a trunk's output at one location.

    Both `response` and `gradient` demand the node's one position of the
    trunk's output map (see `Sequential.forward`): the layers before the
    trunk's last deformable layer run in full, that layer computes only the
    positions the node reads through the later layers, and those run in
    full. A node outside the output map raises ArgumentError. `response`
    runs on shallow copies of the trunk's layers, made here, which share
    their Params, so it records no state on the trunk; `gradient` runs
    forward and backward on the trunk itself, which keeps that state: the
    last deformable layer's `_field` then holds the field's rows at the
    node's demand (`recorded_state` gives them as whole maps).
    """
    copies = Sequential(map(copy.copy, trunk.layers))

    def demand(img):
        h, w = trunk.out_hw(img.shape[1:])
        if not (0 <= y < h and 0 <= x < w):
            raise ArgumentError(f"node ({y}, {x}) lies outside the {h}x{w} output map")
        return [y * w + x]

    def fn(img):
        return copies.forward(img[None], demand(img))[0, :, y, x]

    def grad_fn(img):
        out = trunk.forward(img[None], demand(img))
        f = out[0, :, y, x]
        n = np.linalg.norm(f)
        upstream = np.zeros_like(out)
        if n > 0:
            upstream[0, :, y, x] = f / n
        return trunk.backward(upstream)[0]

    return NodeProbe(fn, grad_fn, name=f"net[{y},{x}]")


# ---------------------------------------------------------------------------
# effective receptive field / effective sampling locations
# ---------------------------------------------------------------------------

def effective_receptive_field(probe: NodeProbe, image) -> np.ndarray:
    """(H, W) map: per-pixel gradient magnitude of the node response, summed
    over color channels.
    """
    if not probe.differentiable:
        raise CapabilityError(f"probe {probe.name!r} is not differentiable")
    g = probe.gradient(image)
    return np.abs(g).sum(axis=0)


def effective_sampling_locations(layer, upstream) -> np.ndarray:
    """Gradient magnitude of a node with respect to each 2-D sampling (or
    bin) coordinate of a deformable layer, from its recorded forward state.

    For a deformable conv layer the result is (N, K, H_out, W_out), over the
    whole field recomputed from the recorded input with the current branch
    parameters, so a demanded forward serves as well as a full one; for a
    deformable pooling layer it is (R, K), from the recorded field.
    """
    if isinstance(layer, DeformConv2dLayer):
        _, _, _, goff, _ = mdconv_backward_optimized(
            layer.recorded_state()[0], layer._weights(), layer.spec, layer._whole_field(),
            upstream)
        return np.hypot(goff[:, 0::2], goff[:, 1::2])
    if isinstance(layer, RoIPoolLayer):
        cache = layer.recorded_state()
        if not layer.deformable:
            raise UsageError("aligned pooling has no learned sampling locations")
        x, rois, field, _ = cache
        _, goff, _ = mdpool_backward(x, rois, layer.spec, field, upstream)
        return np.hypot(goff[:, 0::2], goff[:, 1::2])
    raise UsageError(f"no recorded deformable state on {type(layer).__name__}")


# ---------------------------------------------------------------------------
# SLIC superpixels
# ---------------------------------------------------------------------------

@dataclass
class SuperpixelLabeling:
    """(H, W) integer labels in [0, count); every segment 4-connected, nonempty."""

    labels: np.ndarray
    count: int


_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
# window candidates scored at once by SLIC: bounds its memory on large images
_SLIC_CANDIDATES = 1 << 16
_SLIC_ITERS = 10


def slic_segment(image, target_segments: int, compactness: float = 10.0) -> SuperpixelLabeling:
    """Grid-seeded k-means in (color, position) space with distance
    d = d_color + (compactness / S) * d_spatial, S = sqrt(H*W/target), run
    until an assignment pass repeats the previous one (at most `_SLIC_ITERS`
    passes), then connectivity enforcement merging orphan fragments into the
    largest adjacent segment. The early stop is exact: centers depend only
    on the assignment (an empty cluster keeps its center), so every later
    pass would repeat the last.

    The image must be finite, `target_segments` an integer from 1 to H*W
    and `compactness` finite and >= 0 (0 is the color-only distance). Each
    center competes for the pixels of its window, rows and columns
    int(c - 2S) .. int(c + 2S) clipped to the image.
    A pixel goes to the center with the smallest d among the windows
    covering it, ties to the lowest center index; a pixel that no window
    reaches is scored against all centers. Each nonempty cluster's center
    moves to the mean position and color of its pixels, summed in raster
    order. Window candidates are scored as flat arrays, a block of centers
    (at most `_SLIC_CANDIDATES` candidates) at a time.
    """
    img = _chw(image)
    c, h, w = img.shape
    _check_target_segments(target_segments)
    if target_segments > h * w:
        raise ArgumentError(f"target_segments {target_segments} exceeds pixel count {h * w}")
    if not np.isfinite(img).all():
        raise ArgumentError("SLIC needs a finite image")
    if not (math.isfinite(compactness) and compactness >= 0):
        raise ArgumentError(f"compactness must be finite and >= 0, got {compactness}")

    s = math.sqrt(h * w / target_segments)
    gh = max(1, round(math.sqrt(target_segments * h / w)))
    gw = max(1, math.ceil(target_segments / gh))
    # half-pixel-center seeding keeps Voronoi boundaries between pixel centers
    seed_y = (np.arange(gh) + 0.5) * h / gh - 0.5
    seed_x = (np.arange(gw) + 0.5) * w / gw - 0.5
    centers_pos = np.array([(sy, sx) for sy in seed_y for sx in seed_x])
    iy = np.clip(np.round(centers_pos[:, 0]).astype(int), 0, h - 1)
    ix = np.clip(np.round(centers_pos[:, 1]).astype(int), 0, w - 1)
    centers_col = img[:, iy, ix].T.copy()  # (K0, C)
    k0 = len(centers_pos)

    colors = img.reshape(c, -1)  # (C, H*W): distances add the channels one by one
    pixels = np.ascontiguousarray(colors.T)  # (H*W, C): the layout of img[:, mask]
    ratio = compactness / s
    previous = None
    for _ in range(_SLIC_ITERS):
        cy, cx = centers_pos.T
        r0 = np.maximum(0, (cy - 2 * s).astype(np.int64))
        r1 = np.minimum(h, (cy + 2 * s).astype(np.int64) + 1)
        c0 = np.maximum(0, (cx - 2 * s).astype(np.int64))
        c1 = np.minimum(w, (cx + 2 * s).astype(np.int64) + 1)
        span = np.arange(max(1, (r1 - r0).max(), (c1 - c0).max()))
        ys = r0[:, None] + span  # (K0, span): window rows, then columns
        xs = c0[:, None] + span
        inside = (ys < r1[:, None])[:, :, None] & (xs < c1[:, None])[:, None, :]
        best = np.full(h * w, np.inf)
        assign = np.full(h * w, -1)
        step = max(1, _SLIC_CANDIDATES // span.size ** 2)
        for k in range(0, k0, step):
            # the (pixel, center) candidates of these centers, windows end to end
            sel = slice(k, k + step)
            win = inside[sel]
            kc = np.repeat(np.arange(k0)[sel], win.sum(axis=(1, 2)))
            pix = (ys[sel, :, None] * w + xs[sel, None, :])[win]
            dy = np.broadcast_to((ys[sel] - cy[sel, None])[:, :, None], win.shape)[win]
            dx = np.broadcast_to((xs[sel] - cx[sel, None])[:, None, :], win.shape)[win]
            diff = np.take(colors, pix, axis=1)  # (C, candidates), summed channel by channel
            diff -= centers_col.T[:, kc]
            d = np.sqrt((diff ** 2).sum(axis=0)) + ratio * np.hypot(dy, dx)
            step_best = np.full(h * w, np.inf)
            np.fmin.at(step_best, pix, d)  # fmin: a NaN d never wins, as under `<`
            tie = d == step_best[pix]
            first = np.full(h * w, k0)
            np.minimum.at(first, pix[tie], kc[tie])
            better = step_best < best  # strict: on a tie the lower centers keep the pixel
            best[better] = step_best[better]
            assign[better] = first[better]
        missing = np.flatnonzero(assign < 0)
        if missing.size:
            # clusters drifted away from some pixels: full pass for those only
            my, mx = np.divmod(missing, w)
            d_all = np.full(missing.size, np.inf)
            for k in range(k0):
                d_col = np.sqrt(((img[:, my, mx] - centers_col[k][:, None]) ** 2).sum(axis=0))
                d_m = d_col + ratio * np.hypot(my - centers_pos[k, 0], mx - centers_pos[k, 1])
                better = d_m < d_all
                d_all[better] = d_m[better]
                assign[missing[better]] = k
        if previous is not None and np.array_equal(assign, previous):
            break  # the centers would not move
        _move_centers(pixels, w, assign, centers_pos, centers_col)
        previous = assign

    labels = _enforce_connectivity(assign.reshape(h, w))
    return SuperpixelLabeling(labels, int(labels.max()) + 1)


def _check_target_segments(target_segments) -> None:
    if not (is_integer(target_segments) and target_segments >= 1):
        raise ArgumentError(f"target_segments must be an integer >= 1, got {target_segments!r}")


def _move_centers(pixels: np.ndarray, w: int, assign: np.ndarray,
                  centers_pos: np.ndarray, centers_col: np.ndarray) -> None:
    """Move each nonempty cluster's center to the mean (y, x) and color of its
    pixels, bit for bit `yy[mask].mean()` and `img[:, mask].mean(axis=1)`.

    `pixels` is the (H*W, C) image in raster order. Coordinates are
    integers, so their sums are exact in any order. Clusters of equal size
    are summed together from a (clusters, size, C) gather: per cluster the
    pixel-major layout that `img[:, mask]` has, so numpy sums in the same
    order (pairwise over the pixels for one channel, pixel by pixel for more).
    """
    order = np.argsort(assign, kind="stable")
    order = order[np.count_nonzero(assign < 0):]  # unscored pixels (-1) move no center
    lab = assign[order]
    starts = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
    sizes = np.diff(np.r_[starts, lab.size])
    yx = np.stack(np.divmod(order, w)).astype(np.float64)
    pos_sums = np.add.reduceat(yx, starts, axis=1)
    colors = pixels[order]
    col_sums = np.empty((sizes.size, pixels.shape[1]))
    by_size = np.argsort(sizes, kind="stable")
    runs, first = np.unique(sizes[by_size], return_index=True)
    for n, i0, i1 in zip(runs.tolist(), first.tolist(), [*first[1:].tolist(), sizes.size]):
        group = by_size[i0:i1]
        col_sums[group] = colors[starts[group, None] + np.arange(n)].sum(axis=1)
    centers_pos[lab[starts]] = (pos_sums / sizes).T
    centers_col[lab[starts]] = col_sums / sizes[:, None]


def _enforce_connectivity(assign: np.ndarray) -> np.ndarray:
    """Keep each label's largest 4-connected component; merge every other
    fragment into the largest adjacent segment.

    Components are found in one labeling pass over a (2H-1, 2W-1) grid whose
    even cells are the pixels and whose cells between two pixels are set when
    their labels agree. They are numbered by label, then size descending,
    then first pixel in raster order; per label the first is kept and the
    rest are orphans. Orphans are merged in that order, each into its
    largest adjacent non-orphan segment (ties to the lower number), or into
    its largest adjacent orphan when none is adjacent, with sizes and
    adjacency updated after every merge. Final labels number the surviving
    segments in that order.
    """
    h, w = assign.shape
    grid = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    grid[::2, ::2] = True
    grid[1::2, ::2] = assign[1:] == assign[:-1]
    grid[::2, 1::2] = assign[:, 1:] == assign[:, :-1]
    found, n = ndimage.label(grid, structure=_FOUR_CONN)
    found = found[::2, ::2].reshape(-1) - 1  # numbered in first-pixel raster order
    sizes = np.bincount(found, minlength=n)
    label_of = np.empty(n, dtype=assign.dtype)
    label_of[found] = assign.reshape(-1)
    rank = np.lexsort((np.arange(n), -sizes, label_of))
    comp_id = np.empty(n, dtype=np.int64)
    comp_id[rank] = np.arange(n)
    comp = comp_id[found].reshape(h, w)
    sizes = sizes[rank]
    is_orphan = np.r_[False, label_of[rank][1:] == label_of[rank][:-1]]

    # component adjacency, built once from the 4-neighbor pixel pairs
    a = np.concatenate([comp[:, :-1].ravel(), comp[:-1].ravel()])
    b = np.concatenate([comp[:, 1:].ravel(), comp[1:].ravel()])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = np.unique((lo * n + hi)[lo != hi])
    neighbors = [set() for _ in range(n)]
    for p, q in zip((keys // n).tolist(), (keys % n).tolist()):
        neighbors[p].add(q)
        neighbors[q].add(p)

    merged_into = np.arange(n)
    for frag in np.flatnonzero(is_orphan).tolist():
        adjacent = neighbors[frag]
        if not adjacent:
            continue
        pool = [v for v in adjacent if not is_orphan[v]] or adjacent
        target = max(pool, key=lambda v: (sizes[v], -v))
        sizes[target] += sizes[frag]
        merged_into[frag] = target
        for v in adjacent:
            neighbors[v].discard(frag)
            if v != target:
                neighbors[v].add(target)
                neighbors[target].add(v)
    while True:
        root = merged_into[merged_into]
        if np.array_equal(root, merged_into):
            break
        merged_into = root
    _, labels = np.unique(merged_into[comp], return_inverse=True)
    return labels.reshape(h, w)


# ---------------------------------------------------------------------------
# error-bounded saliency region
# ---------------------------------------------------------------------------

@dataclass
class SaliencyMask:
    """Binary pixel mask with the reconstruction error it achieves (always
    strictly below the requested bound).
    """

    mask: np.ndarray
    achieved_error: float
    epsilon: float
    rect: tuple[int, int, int, int] = (0, 0, 0, 0)  # x, y, w, h
    segments_kept: int = 0
    probe_calls: int = 0
    step2_sizes: list = field(default_factory=list)

    def __post_init__(self):
        vals = np.unique(self.mask)
        if not np.isin(vals, (0, 1)).all():
            raise ArgumentError("mask must be binary")
        if not self.achieved_error < self.epsilon:
            raise ConvergenceError(
                f"achieved error {self.achieved_error} not below bound {self.epsilon}")

    def report_json(self) -> str:
        return json.dumps(
            {
                "epsilon": self.epsilon,
                "achieved_error": self.achieved_error,
                "rect": list(self.rect),
                "segments_kept": self.segments_kept,
                "probe_calls": self.probe_calls,
            },
            sort_keys=True,
        )


def _reconstruction_loss(orig: np.ndarray, masked: np.ndarray) -> float:
    if np.array_equal(orig, masked):
        return 0.0  # also for a zero response, whose cosine is undefined
    if orig.size > 1:
        return cosine_mimic_loss(orig, masked)
    a, b = float(orig[0]), float(masked[0])  # responses are 1-D
    return abs(a - b) / max(abs(a), 1e-9)


# step 1's rectangle grows by this fraction of the image area per step
_AREA_STEP = 0.01


def saliency_region(probe: NodeProbe, image, epsilon: float = 0.1,
                    center: tuple[float, float] | None = None,
                    target_segments: int = 100) -> SaliencyMask:
    """Find a small mask whose masked image keeps the probe response within
    `epsilon` reconstruction error.

    The rectangle is square, centered on `center` (default: the image
    center), and grows by `_AREA_STEP` of the image area per step; step 2
    segments the image into at most `target_segments` SLIC superpixels at
    `slic_segment`'s default compactness; its units are the superpixels that
    share a pixel with the rectangle. Unless `epsilon` is finite and > 0,
    `target_segments` an integer >= 1 (above H*W it means H*W) and a center
    (cy, cx) lies in the H x W image, 0 <= cy <= H-1 and 0 <= cx <= W-1,
    ArgumentError is raised before the probe runs.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ArgumentError(f"epsilon must be finite and positive, got {epsilon}")
    _check_target_segments(target_segments)
    img = _chw(image)
    _, h, w = img.shape
    cy, cx = ((h - 1) / 2.0, (w - 1) / 2.0) if center is None else center
    if not (0 <= cy <= h - 1 and 0 <= cx <= w - 1):  # NaN fails too
        raise ArgumentError(f"center ({cy}, {cx}) must lie in the {h}x{w} image")
    orig = probe.response(img)
    calls = 1

    def loss_for(mask: np.ndarray) -> float:
        nonlocal calls
        resp = probe.response(img * mask[None])
        calls += 1
        return _reconstruction_loss(orig, resp)

    # step 1: centered square grown at even area increments
    step = max(1.0, _AREA_STEP * h * w)
    prev_rect = None
    for t in itertools.count(1):
        side = math.sqrt(t * step)
        y0 = max(0, int(round(cy - side / 2 + 0.5)))
        y1 = min(h, int(round(cy + side / 2 + 0.5)))
        x0 = max(0, int(round(cx - side / 2 + 0.5)))
        x1 = min(w, int(round(cx + side / 2 + 0.5)))
        # a one-pixel side can round to an empty span
        if y1 <= y0:
            y0, y1 = int(cy), int(cy) + 1
        if x1 <= x0:
            x0, x1 = int(cx), int(cx) + 1
        cand = (y0, y1, x0, x1)
        if cand == prev_rect:
            continue
        prev_rect = cand
        mask = np.zeros((h, w), dtype=np.float64)
        mask[y0:y1, x0:x1] = 1.0
        err = loss_for(mask)
        if err < epsilon:
            break
        if cand == (0, h, 0, w):
            raise ConvergenceError(
                f"reconstruction bound {epsilon} unreachable even with the full image")

    # step 2: greedy superpixel removal inside the rectangle
    rect_mask = cur_mask = mask > 0
    seg = slic_segment(img, min(target_segments, h * w))
    units = {s_id: (seg.labels == s_id) & rect_mask
             for s_id in np.unique(seg.labels[rect_mask]).tolist()}
    cur_error = err
    sizes = [int(cur_mask.sum())]
    while units:
        best = None
        for s_id, cells in units.items():
            cand = cur_mask & ~cells
            err = loss_for(cand.astype(np.float64))
            if err < epsilon and (best is None or (err, s_id) < best[:2]):
                best = (err, s_id, cand)
        if best is None:
            break
        cur_error, removed, cur_mask = best
        del units[removed]
        sizes.append(int(cur_mask.sum()))

    return SaliencyMask(
        mask=cur_mask.astype(np.uint8),
        achieved_error=float(cur_error),
        epsilon=float(epsilon),
        rect=(x0, y0, x1 - x0, y1 - y0),
        segments_kept=len(units),
        probe_calls=calls,
        step2_sizes=sizes,
    )

"""Gradient-check targets: per-operation instance generators wired to the
finite-difference oracle.

This is the only module allowed to see both the kernels and the oracle. Each
target builds a random small instance (rejection-sampled so every bilinear
sampling position stays at least 0.02 from the integer lattice and ReLU
pre-activations stay away from their kink; a generator whose draws run out
raises ConvergenceError), contracts the operation output
against a fixed random projection to get a scalar objective, and hands the
analytic gradients plus per-block objectives to `oracle.gradcheck`.
"""

from __future__ import annotations

import fnmatch

import numpy as np

from . import mimic
from .deform_conv import (
    ConvWeights,
    KernelSpec,
    OffsetModulationField,
    mdconv_backward_optimized,
    mdconv_forward_optimized,
    offset_branch_backward,
    offset_branch_forward,
)
from .deform_roipool import (
    Affine,
    BinField,
    PoolSpec,
    RoI,
    _grid_positions,
    mdpool_backward,
    mdpool_forward,
    roi_branch_backward,
    roi_branch_forward,
)
from .errors import ConvergenceError, UsageError
from .net import DeformConv2dLayer
from .oracle import GradBlock, GradCheckReport, gradcheck
from .sampling import bilinear_backward, bilinear_sample

LATTICE_MARGIN = 2e-2
# smallest |pre-activation| a ReLU input may have in a gradcheck instance
KINK_MARGIN = 1e-2

GRADCHECK_TARGETS: dict = {}


def register_gradcheck(name: str):
    def deco(fn):
        GRADCHECK_TARGETS[name] = fn
        return fn

    return deco


def _off_lattice(values: np.ndarray) -> np.ndarray:
    """Push fractional parts into [margin, 1-margin] so finite-difference
    steps never cross a bilinear cell boundary.
    """
    frac = values - np.floor(values)
    lo = frac < LATTICE_MARGIN
    hi = frac > 1.0 - LATTICE_MARGIN
    return values + lo * LATTICE_MARGIN + hi * (-LATTICE_MARGIN)


def _near_lattice(positions: np.ndarray) -> np.ndarray:
    """Mask of the sampling coordinates within LATTICE_MARGIN of an integer."""
    frac = positions - np.floor(positions)
    return (frac < LATTICE_MARGIN) | (frac > 1.0 - LATTICE_MARGIN)


@register_gradcheck("bilinear")
def _bilinear_instance(seed: int) -> list[GradBlock]:
    rng = np.random.default_rng([seed, 1])
    plane = rng.normal(size=(4, 5))
    pt = _off_lattice(rng.uniform(-0.5, 4.0, size=2))
    upstream = float(rng.normal())

    gplane_sparse, gpt = bilinear_backward(plane, pt, upstream)
    gplane = np.zeros_like(plane)
    for (iy, ix), gv in gplane_sparse.items():
        gplane[iy, ix] = gv

    return [
        GradBlock("plane", plane, gplane,
                  lambda p: upstream * bilinear_sample(p, pt)),
        GradBlock("point", pt, np.asarray(gpt),
                  lambda q: upstream * bilinear_sample(plane, (q[0], q[1]))),
    ]


@register_gradcheck("cosine_mimic")
def _cosine_instance(seed: int) -> list[GradBlock]:
    rng = np.random.default_rng([seed, 2])
    a = rng.normal(size=16) + 0.1
    b = rng.normal(size=16) + 0.1
    upstream = float(rng.normal())
    ga, gb = mimic.cosine_mimic_backward(a, b, upstream)
    return [
        GradBlock("a", a, ga, lambda v: upstream * mimic.cosine_mimic_loss(v, b)),
        GradBlock("b", b, gb, lambda v: upstream * mimic.cosine_mimic_loss(a, v)),
    ]


def _mdconv_instance_parts(rng: np.random.Generator):
    spec = KernelSpec(3, 3, stride=(1, 1), pad=(0, 0), dilation=(1, 1))
    x = rng.normal(size=(1, 2, 5, 5))
    w = ConvWeights(rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2))
    h_out, w_out = spec.out_size(5, 5)
    offsets = _off_lattice(rng.uniform(-2.0, 2.0, size=(1, 2 * spec.k, h_out, w_out)))
    modulation = rng.uniform(0.1, 0.9, size=(1, spec.k, h_out, w_out))
    upstream = rng.normal(size=(1, 2, h_out, w_out))
    return spec, x, w, offsets, modulation, upstream


def _mdconv_blocks(spec: KernelSpec, x, w: ConvWeights, offsets, modulation,
                   upstream) -> list[GradBlock]:
    field = OffsetModulationField(offsets, modulation)
    gx, gw, gb, goff, gmod = mdconv_backward_optimized(x, w, spec, field, upstream)

    def obj(x_=None, w_=None, b_=None, off_=None, mod_=None) -> float:
        ww = ConvWeights(w.weight if w_ is None else w_, w.bias if b_ is None else b_)
        ff = OffsetModulationField(offsets if off_ is None else off_,
                                   modulation if mod_ is None else mod_)
        out = mdconv_forward_optimized(x if x_ is None else x_, ww, spec, ff)
        return float((out * upstream).sum())

    return [
        GradBlock("x", x, gx, lambda v: obj(x_=v)),
        GradBlock("weight", w.weight, gw, lambda v: obj(w_=v)),
        GradBlock("bias", w.bias, gb, lambda v: obj(b_=v)),
        GradBlock("offsets", offsets, goff, lambda v: obj(off_=v)),
        GradBlock("modulation", modulation, gmod, lambda v: obj(mod_=v)),
    ]


@register_gradcheck("mdconv")
def _mdconv_instance(seed: int) -> list[GradBlock]:
    rng = np.random.default_rng([seed, 3])
    return _mdconv_blocks(*_mdconv_instance_parts(rng))


@register_gradcheck("mdconv_geometry")
def _mdconv_geometry_instance(seed: int) -> list[GradBlock]:
    """Strided, padded and dilated mdconv. The kernel lattice is integer, so
    a sampling position is off the lattice exactly when its offset is; the
    offsets that come within LATTICE_MARGIN of an integer are redrawn.
    """
    rng = np.random.default_rng([seed, 10])
    spec = KernelSpec(3, 3, stride=(2, 2), pad=(1, 1), dilation=(2, 2))
    x = rng.normal(size=(1, 2, 7, 8))
    w = ConvWeights(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3))
    h_out, w_out = spec.out_size(7, 8)
    offsets = rng.uniform(-2.0, 2.0, size=(1, 2 * spec.k, h_out, w_out))
    for _ in range(100):
        near = _near_lattice(offsets)
        if not near.any():
            break
        offsets[near] = rng.uniform(-2.0, 2.0, size=int(near.sum()))
    else:
        raise ConvergenceError(f"no mdconv offsets {LATTICE_MARGIN} off the lattice "
                               "in 100 draws")
    modulation = rng.uniform(0.1, 0.9, size=(1, spec.k, h_out, w_out))
    upstream = rng.normal(size=(1, 3, h_out, w_out))
    return _mdconv_blocks(spec, x, w, offsets, modulation, upstream)


def _mdpool_instance_parts(rng: np.random.Generator):
    spec = PoolSpec(2, 2, samples=2)
    x = rng.normal(size=(2, 2, 8, 8))
    rois = [
        RoI(int(rng.integers(0, 2)), 1.3, 0.9, 5.7, 6.1),
        RoI(int(rng.integers(0, 2)), 0.4, 2.2, 6.9, 5.3),
    ]
    # keep every sampling position off the lattice under FD perturbation
    py, px = _grid_positions(rois, spec)
    for _ in range(50):
        offsets = rng.uniform(-1.5, 1.5, size=(len(rois), 2 * spec.k))
        if not _near_lattice(np.concatenate([py + offsets[:, 0::2, None],
                                             px + offsets[:, 1::2, None]])).any():
            break
    else:
        raise ConvergenceError(f"no mdpool offsets {LATTICE_MARGIN} off the lattice in 50 draws")
    modulation = rng.uniform(0.1, 0.9, size=(len(rois), spec.k))
    upstream = rng.normal(size=(len(rois), 2, spec.bins_h, spec.bins_w))
    return spec, x, rois, offsets, modulation, upstream


@register_gradcheck("mdpool")
def _mdpool_instance(seed: int) -> list[GradBlock]:
    rng = np.random.default_rng([seed, 4])
    spec, x, rois, offsets, modulation, upstream = _mdpool_instance_parts(rng)
    gx, goff, gmod = mdpool_backward(x, rois, spec, BinField(offsets, modulation), upstream)

    def obj(x_=None, off_=None, mod_=None) -> float:
        field = BinField(offsets if off_ is None else off_, modulation if mod_ is None else mod_)
        out = mdpool_forward(x if x_ is None else x_, rois, spec, field)
        return float((out * upstream).sum())

    return [
        GradBlock("x", x, gx, lambda v: obj(x_=v)),
        GradBlock("offsets", offsets, goff, lambda v: obj(off_=v)),
        GradBlock("modulation", modulation, gmod, lambda v: obj(mod_=v)),
    ]


@register_gradcheck("offset_branch")
def _offset_branch_instance(seed: int) -> list[GradBlock]:
    rng = np.random.default_rng([seed, 5])
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(1, 2, 5, 5))
    bw = ConvWeights(rng.normal(size=(3 * spec.k, 2, 3, 3)) * 0.3,
                     rng.normal(size=3 * spec.k) * 0.3)
    h_out, w_out = spec.out_size(5, 5)
    u_off = rng.normal(size=(1, 2 * spec.k, h_out, w_out))
    u_mod = rng.normal(size=(1, spec.k, h_out, w_out))

    field = offset_branch_forward(x, bw, spec)
    gx, gw, gb = offset_branch_backward(x, bw, spec, field, u_off, u_mod)

    def obj(x_=None, w_=None, b_=None) -> float:
        ww = ConvWeights(bw.weight if w_ is None else w_, bw.bias if b_ is None else b_)
        f = offset_branch_forward(x if x_ is None else x_, ww, spec)
        return float((f.offsets * u_off).sum() + (f.modulation * u_mod).sum())

    return [
        GradBlock("x", x, gx, lambda v: obj(x_=v)),
        GradBlock("branch_weight", bw.weight, gw, lambda v: obj(w_=v)),
        GradBlock("branch_bias", bw.bias, gb, lambda v: obj(b_=v)),
    ]


def _deform_layer_blocks(seed: int, stream: int, modulated: bool,
                         demanded: bool = False) -> list[GradBlock]:
    """Blocks for a whole float64 `DeformConv2dLayer`, offset branch included;
    `demanded` runs it on a random non-empty list of its output positions,
    with an upstream that is non-zero everywhere.

    The kernel lattice is integer, so a sampling position is off the lattice
    exactly when its offset is. Offset biases near the middle of a cell and
    small branch weights make such draws common; the draw is rejected when
    any offset comes within LATTICE_MARGIN of an integer.
    """
    spec = KernelSpec(3, 3)
    k = spec.k
    for attempt in range(100):
        rng = np.random.default_rng([seed, stream, attempt])
        layer = DeformConv2dLayer(2, 2, spec, rng, modulated=modulated)
        branch_out = layer.branch_bias.value.size
        values = {
            "weight": rng.normal(size=layer.weight.value.shape),
            "bias": rng.normal(size=2),
            "branch_weight": rng.normal(size=layer.branch_weight.value.shape) * 0.03,
            "branch_bias": np.concatenate([
                rng.integers(-1, 2, size=2 * k) + rng.uniform(0.4, 0.6, size=2 * k),
                rng.normal(size=branch_out - 2 * k)]),
        }
        params = {name: getattr(layer, name) for name in values}
        for name, value in values.items():
            params[name].value = value
        x = rng.normal(size=(1, 2, 5, 5))
        layer.forward(x)
        if not _near_lattice(layer.recorded_state()[1].offsets).any():
            break
    else:
        raise ConvergenceError(f"no deformable layer offsets {LATTICE_MARGIN} off the lattice "
                               "in 100 draws")
    demand = None
    if demanded:
        demand = np.sort(rng.choice(9, size=int(rng.integers(1, 9)), replace=False))
        layer.forward(x, demand)
    upstream = rng.normal(size=(1, 2, 3, 3))
    gx = layer.backward(upstream)

    def obj(**override) -> float:
        for name, p in params.items():
            p.value = override.get(name, values[name])
        return float((layer.forward(override.get("x", x), demand) * upstream).sum())

    return [GradBlock("x", x, gx, lambda v: obj(x=v))] + [
        GradBlock(name, values[name], params[name].grad, lambda v, name=name: obj(**{name: v}))
        for name in values
    ]


@register_gradcheck("mdconv_layer")
def _mdconv_layer_instance(seed: int) -> list[GradBlock]:
    return _deform_layer_blocks(seed, 8, modulated=True)


@register_gradcheck("dconv_layer")
def _dconv_layer_instance(seed: int) -> list[GradBlock]:
    """The unmodulated layer: a 2K branch, modulation fixed at 1."""
    return _deform_layer_blocks(seed, 9, modulated=False)


@register_gradcheck("mdconv_layer_positions")
def _mdconv_layer_positions_instance(seed: int) -> list[GradBlock]:
    """The layer's position-list path: a demanded forward, whose output is
    the constant zero off the demand, and the backward that masks it.
    """
    return _deform_layer_blocks(seed, 11, modulated=True, demanded=True)


def _roi_branch_blocks(seed: int, stream: int, rois: list[RoI]) -> list[GradBlock]:
    """Blocks for `roi_branch_forward/backward` on R RoIs (pooled
    (R, 3, 2, 2)); the objective projects every RoI's offsets and modulation.
    """
    hidden = 12
    k = 4
    in_dim = 12
    for attempt in range(100):
        rng = np.random.default_rng([seed, stream, attempt])
        pooled = rng.normal(size=(len(rois), 3, 2, 2))
        fc1 = Affine(rng.normal(size=(hidden, in_dim)) * 0.4, rng.normal(size=hidden) * 0.1)
        fc2 = Affine(rng.normal(size=(hidden, hidden)) * 0.4, rng.normal(size=hidden) * 0.1)
        out_w = Affine(rng.normal(size=(3 * k, hidden)) * 0.4, rng.normal(size=3 * k) * 0.1)
        z1 = pooled.reshape(-1, in_dim) @ fc1.weight.T + fc1.bias
        if np.abs(z1).min() > KINK_MARGIN:  # keep FD away from the ReLU kink
            break
    else:
        raise ConvergenceError(f"no RoI branch instance {KINK_MARGIN} off the ReLU kink "
                               "in 100 draws")
    u_off = rng.normal(size=(len(rois), 2 * k))
    u_mod = rng.normal(size=(len(rois), k))

    _, cache = roi_branch_forward(pooled, fc1, fc2, out_w, rois)
    gp, (gw1, gb1), (gw2, gb2), (gwo, gbo) = roi_branch_backward(
        fc1, fc2, out_w, cache, u_off, u_mod)

    def obj(pooled_=None, w1=None, b1=None, w2=None, b2=None, wo=None, bo=None) -> float:
        f1 = Affine(fc1.weight if w1 is None else w1, fc1.bias if b1 is None else b1)
        f2 = Affine(fc2.weight if w2 is None else w2, fc2.bias if b2 is None else b2)
        fo = Affine(out_w.weight if wo is None else wo, out_w.bias if bo is None else bo)
        f, _ = roi_branch_forward(pooled if pooled_ is None else pooled_, f1, f2, fo, rois)
        return float((f.offsets * u_off).sum() + (f.modulation * u_mod).sum())

    return [
        GradBlock("pooled", pooled, gp, lambda v: obj(pooled_=v)),
        GradBlock("fc1_weight", fc1.weight, gw1, lambda v: obj(w1=v)),
        GradBlock("fc1_bias", fc1.bias, gb1, lambda v: obj(b1=v)),
        GradBlock("fc2_weight", fc2.weight, gw2, lambda v: obj(w2=v)),
        GradBlock("fc2_bias", fc2.bias, gb2, lambda v: obj(b2=v)),
        GradBlock("out_weight", out_w.weight, gwo, lambda v: obj(wo=v)),
        GradBlock("out_bias", out_w.bias, gbo, lambda v: obj(bo=v)),
    ]


@register_gradcheck("roi_branch")
def _roi_branch_instance(seed: int) -> list[GradBlock]:
    return _roi_branch_blocks(seed, 6, [RoI(0, 1.25, 2.5, 9.75, 8.0)])


@register_gradcheck("roi_branch_batch")
def _roi_branch_batch_instance(seed: int) -> list[GradBlock]:
    """Three RoIs of different extents: the parameter gradients are sums over
    RoIs, and each RoI's offsets scale with its own height and width.
    """
    rois = [RoI(0, 1.25, 2.5, 9.75, 8.0), RoI(1, 0.5, 0.0, 3.5, 12.25),
            RoI(0, 4.0, 1.5, 21.0, 6.0)]
    return _roi_branch_blocks(seed, 7, rois)


def matching_ops(pattern: str) -> list[str]:
    names = sorted(GRADCHECK_TARGETS)
    hits = [n for n in names if fnmatch.fnmatch(n, pattern)]
    if not hits:
        raise UsageError(f"no gradcheck target matches {pattern!r} "
                         f"(available: {', '.join(names)})")
    return hits


def run_gradcheck(pattern: str = "*", seeds: int = 50,
                  tolerance: float = 1e-3) -> list[GradCheckReport]:
    """Run every matching target over `seeds` seeds; reports carry the seed
    for replay.
    """
    reports = []
    for op in matching_ops(pattern):
        build = GRADCHECK_TARGETS[op]
        for seed in range(seeds):
            reports.append(gradcheck(op, build(seed), seed, tolerance=tolerance))
    return reports

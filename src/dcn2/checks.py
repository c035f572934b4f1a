"""Gradient-check targets: per-operation instance generators wired to the
finite-difference oracle.

This is the only module allowed to see both the kernels and the oracle. Each
target builds a random small instance (rejection-sampled so every bilinear
sampling position stays at least 0.02 from the integer lattice and ReLU
pre-activations stay away from their kink; a generator whose draws run out
raises ConvergenceError) and returns its named float64 arrays in block
order, their analytic gradients by name, and one scalar `objective(**values)`
that contracts the output against a fixed random projection.
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
from .net import DeformConv2dLayer, RoIPoolLayer
from .oracle import GradCheckReport, gradcheck
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
def _bilinear_instance(seed: int):
    rng = np.random.default_rng([seed, 1])
    plane = rng.normal(size=(4, 5))
    pt = _off_lattice(rng.uniform(-0.5, 4.0, size=2))
    upstream = float(rng.normal())

    gplane_sparse, gpt = bilinear_backward(plane, pt, upstream)
    gplane = np.zeros_like(plane)
    for (iy, ix), gv in gplane_sparse.items():
        gplane[iy, ix] = gv

    return ({"plane": plane, "point": pt}, {"plane": gplane, "point": gpt},
            lambda plane, point: upstream * bilinear_sample(plane, point))


@register_gradcheck("cosine_mimic")
def _cosine_instance(seed: int):
    rng = np.random.default_rng([seed, 2])
    a = rng.normal(size=16) + 0.1
    b = rng.normal(size=16) + 0.1
    upstream = float(rng.normal())
    ga, gb = mimic.cosine_mimic_backward(a, b, upstream)
    return ({"a": a, "b": b}, {"a": ga, "b": gb},
            lambda a, b: upstream * mimic.cosine_mimic_loss(a, b))


def _mdconv_instance_parts(rng: np.random.Generator):
    spec = KernelSpec(3, 3, stride=(1, 1), pad=(0, 0), dilation=(1, 1))
    x = rng.normal(size=(1, 2, 5, 5))
    w = ConvWeights(rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2))
    h_out, w_out = spec.out_size(5, 5)
    offsets = _off_lattice(rng.uniform(-2.0, 2.0, size=(1, 2 * spec.k, h_out, w_out)))
    modulation = rng.uniform(0.1, 0.9, size=(1, spec.k, h_out, w_out))
    upstream = rng.normal(size=(1, 2, h_out, w_out))
    return spec, x, w, offsets, modulation, upstream


def _mdconv_target(spec: KernelSpec, x, w: ConvWeights, offsets, modulation, upstream):
    values = dict(x=x, weight=w.weight, bias=w.bias, offsets=offsets, modulation=modulation)
    grads = mdconv_backward_optimized(x, w, spec, OffsetModulationField(offsets, modulation),
                                      upstream)

    def objective(x, weight, bias, offsets, modulation) -> float:
        out = mdconv_forward_optimized(x, ConvWeights(weight, bias), spec,
                                       OffsetModulationField(offsets, modulation))
        return float((out * upstream).sum())

    return values, dict(zip(values, grads)), objective


@register_gradcheck("mdconv")
def _mdconv_instance(seed: int):
    rng = np.random.default_rng([seed, 3])
    return _mdconv_target(*_mdconv_instance_parts(rng))


@register_gradcheck("mdconv_geometry")
def _mdconv_geometry_instance(seed: int):
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
    return _mdconv_target(spec, x, w, offsets, modulation, upstream)


def _bins_near_lattice(rois: list[RoI], spec: PoolSpec, offsets: np.ndarray) -> bool:
    """Whether any bin sampling position, moved by the (R, 2K) `offsets`,
    lies within LATTICE_MARGIN of the lattice.
    """
    py, px = _grid_positions(rois, spec)
    return bool(_near_lattice(np.concatenate([py + offsets[:, 0::2, None],
                                              px + offsets[:, 1::2, None]])).any())


def _mdpool_instance_parts(rng: np.random.Generator):
    spec = PoolSpec(2, 2, samples=2)
    x = rng.normal(size=(2, 2, 8, 8))
    rois = [
        RoI(int(rng.integers(0, 2)), 1.3, 0.9, 5.7, 6.1),
        RoI(int(rng.integers(0, 2)), 0.4, 2.2, 6.9, 5.3),
    ]
    # keep every sampling position off the lattice under FD perturbation
    for _ in range(50):
        offsets = rng.uniform(-1.5, 1.5, size=(len(rois), 2 * spec.k))
        if not _bins_near_lattice(rois, spec, offsets):
            break
    else:
        raise ConvergenceError(f"no mdpool offsets {LATTICE_MARGIN} off the lattice in 50 draws")
    modulation = rng.uniform(0.1, 0.9, size=(len(rois), spec.k))
    upstream = rng.normal(size=(len(rois), 2, spec.bins_h, spec.bins_w))
    return spec, x, rois, offsets, modulation, upstream


@register_gradcheck("mdpool")
def _mdpool_instance(seed: int):
    rng = np.random.default_rng([seed, 4])
    spec, x, rois, offsets, modulation, upstream = _mdpool_instance_parts(rng)
    values = {"x": x, "offsets": offsets, "modulation": modulation}
    grads = mdpool_backward(x, rois, spec, BinField(offsets, modulation), upstream)

    def objective(x, offsets, modulation) -> float:
        return float((mdpool_forward(x, rois, spec, BinField(offsets, modulation))
                      * upstream).sum())

    return values, dict(zip(values, grads)), objective


@register_gradcheck("offset_branch")
def _offset_branch_instance(seed: int):
    rng = np.random.default_rng([seed, 5])
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(1, 2, 5, 5))
    bw = ConvWeights(rng.normal(size=(3 * spec.k, 2, 3, 3)) * 0.3,
                     rng.normal(size=3 * spec.k) * 0.3)
    h_out, w_out = spec.out_size(5, 5)
    u_off = rng.normal(size=(1, 2 * spec.k, h_out, w_out))
    u_mod = rng.normal(size=(1, spec.k, h_out, w_out))

    values = {"x": x, "branch_weight": bw.weight, "branch_bias": bw.bias}
    field = offset_branch_forward(x, bw, spec)
    grads = offset_branch_backward(x, bw, spec, field, u_off, u_mod)

    def objective(x, branch_weight, branch_bias) -> float:
        f = offset_branch_forward(x, ConvWeights(branch_weight, branch_bias), spec)
        return float((f.offsets * u_off).sum() + (f.modulation * u_mod).sum())

    return values, dict(zip(values, grads)), objective


def _layer_target(layer, forward, x, upstream, params: dict):
    """A float64 layer's target after its last `forward(x)`; `params` names
    its Params by attribute, which the objective sets before `forward`.
    """
    analytic = {"x": layer.backward(upstream), **{n: getattr(layer, n).grad for n in params}}

    def objective(x, **arrays) -> float:
        for name, value in arrays.items():
            getattr(layer, name).value = value
        return float((forward(x) * upstream).sum())

    return {"x": x, **params}, analytic, objective


def _deform_layer_target(seed: int, stream: int, modulated: bool, demanded: bool = False):
    """A whole float64 `DeformConv2dLayer`, offset branch included;
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
        params = {
            "weight": rng.normal(size=layer.weight.value.shape),
            "bias": rng.normal(size=2),
            "branch_weight": rng.normal(size=layer.branch_weight.value.shape) * 0.03,
            "branch_bias": np.concatenate([
                rng.integers(-1, 2, size=2 * k) + rng.uniform(0.4, 0.6, size=2 * k),
                rng.normal(size=branch_out - 2 * k)]),
        }
        for name, value in params.items():
            getattr(layer, name).value = value
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
    return _layer_target(layer, lambda v: layer.forward(v, demand), x, upstream, params)


@register_gradcheck("mdconv_layer")
def _mdconv_layer_instance(seed: int):
    return _deform_layer_target(seed, 8, modulated=True)


@register_gradcheck("dconv_layer")
def _dconv_layer_instance(seed: int):
    """The unmodulated layer: a 2K branch, modulation fixed at 1."""
    return _deform_layer_target(seed, 9, modulated=False)


@register_gradcheck("mdconv_layer_positions")
def _mdconv_layer_positions_instance(seed: int):
    """The layer's position-list path: a demanded forward, whose output is
    the constant zero off the demand, and the backward that masks it.
    """
    return _deform_layer_target(seed, 11, modulated=True, demanded=True)


@register_gradcheck("roi_pool_layer")
def _roi_pool_layer_instance(seed: int):
    """A whole float64 deformable `RoIPoolLayer`, fc branch included, so the
    input gradient adds the branch's pooled-feature gradient, taken back
    through aligned pooling, to the mdpool one. A draw is rejected when a
    bin sampling position comes within LATTICE_MARGIN of the lattice or an
    fc1 pre-activation within KINK_MARGIN of the ReLU kink.
    """
    spec = PoolSpec(2, 2, samples=2)
    rois = [RoI(0, 1.3, 0.9, 5.7, 6.1), RoI(1, 0.4, 2.2, 6.9, 5.3)]
    for attempt in range(100):
        rng = np.random.default_rng([seed, 12, attempt])
        layer = RoIPoolLayer(2, spec, rng, deformable=True, hidden=6)
        params = {}
        for name, scale in (("fc1_w", 0.5), ("fc1_b", 0.1), ("fc2_w", 0.5), ("fc2_b", 0.1),
                            ("out_w", 0.1), ("out_b", 0.1)):
            params[name] = rng.normal(size=getattr(layer, name).value.shape) * scale
            getattr(layer, name).value = params[name]
        x = rng.normal(size=(2, 2, 8, 8))
        layer.forward(x, rois)
        field, branch = layer.recorded_state()[2:]
        z1 = branch.z0 @ params["fc1_w"].T + params["fc1_b"]
        if not _bins_near_lattice(rois, spec, field.offsets) and np.abs(z1).min() > KINK_MARGIN:
            break
    else:
        raise ConvergenceError(f"no RoI pooling layer instance {LATTICE_MARGIN} off the lattice "
                               f"and {KINK_MARGIN} off the ReLU kink in 100 draws")
    upstream = rng.normal(size=(len(rois), 2, spec.bins_h, spec.bins_w))
    return _layer_target(layer, lambda v: layer.forward(v, rois), x, upstream, params)


def _roi_branch_target(seed: int, stream: int, rois: list[RoI]):
    """`roi_branch_forward/backward` on R RoIs (pooled (R, 3, 2, 2)); the
    objective projects every RoI's offsets and modulation.
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

    values = dict(pooled=pooled, fc1_weight=fc1.weight, fc1_bias=fc1.bias, fc2_weight=fc2.weight,
                  fc2_bias=fc2.bias, out_weight=out_w.weight, out_bias=out_w.bias)
    _, cache = roi_branch_forward(pooled, fc1, fc2, out_w, rois)
    gp, (gw1, gb1), (gw2, gb2), (gwo, gbo) = roi_branch_backward(
        fc1, fc2, out_w, cache, u_off, u_mod)

    def objective(pooled, fc1_weight, fc1_bias, fc2_weight, fc2_bias,
                  out_weight, out_bias) -> float:
        f, _ = roi_branch_forward(pooled, Affine(fc1_weight, fc1_bias),
                                  Affine(fc2_weight, fc2_bias), Affine(out_weight, out_bias), rois)
        return float((f.offsets * u_off).sum() + (f.modulation * u_mod).sum())

    return values, dict(zip(values, (gp, gw1, gb1, gw2, gb2, gwo, gbo))), objective


@register_gradcheck("roi_branch")
def _roi_branch_instance(seed: int):
    return _roi_branch_target(seed, 6, [RoI(0, 1.25, 2.5, 9.75, 8.0)])


@register_gradcheck("roi_branch_batch")
def _roi_branch_batch_instance(seed: int):
    """Three RoIs of different extents: the parameter gradients are sums over
    RoIs, and each RoI's offsets scale with its own height and width.
    """
    rois = [RoI(0, 1.25, 2.5, 9.75, 8.0), RoI(1, 0.5, 0.0, 3.5, 12.25),
            RoI(0, 4.0, 1.5, 21.0, 6.0)]
    return _roi_branch_target(seed, 7, rois)


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
            reports.append(gradcheck(op, *build(seed), seed, tolerance=tolerance))
    return reports

"""Minimal hand-backpropagated layers for the toy training harness.

Not an autograd system: each layer caches what its own backward pass needs,
and models wire layers together explicitly. The deformable layers keep no
operator math of their own: `DeformConv2dLayer` calls
`offset_branch_forward`/`_backward` and the mdconv kernels, `RoIPoolLayer`
the pooling kernels or, deformable, the step in `deform_roipool` that
composes them with `roi_branch_forward`/`_backward`. Parameters
carry a learning-rate multiplier so offset/modulation branches can train at
0.1x the base rate.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .deform_conv import (
    BRANCH_LR_MULTIPLIER,
    ConvWeights,
    KernelSpec,
    OffsetModulationField,
    dense_conv_backward,
    dense_conv_forward,
    mdconv_backward_optimized,
    mdconv_forward_optimized,
    offset_branch_backward,
    offset_branch_forward,
)
from .deform_roipool import (
    Affine,
    PoolSpec,
    RoI,
    _deformable_pool_backward,
    _deformable_pool_forward,
    aligned_pool_backward,
    aligned_pool_forward,
    aligned_pool_reads,
    make_roi_branch,
)
from .errors import ShapeError, UsageError
from .sampling import pixel_map, pixel_rows


# toy networks train in single precision; gradient accumulators stay f64
COMPUTE_DTYPE = np.float32


class Param:
    """A trainable array with its gradient accumulator and rate multiplier."""

    def __init__(self, value: np.ndarray, lr_mult: float = 1.0, name: str = ""):
        self.value = np.asarray(value, dtype=COMPUTE_DTYPE)
        self.grad = np.zeros(self.value.shape, dtype=np.float64)
        self.lr_mult = float(lr_mult)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class SGD:
    """SGD with momentum and weight decay; updates honor each Param's lr_mult."""

    def __init__(self, params, lr: float, momentum: float = 0.9, weight_decay: float = 1e-4):
        seen = set()
        self.params = []
        for p in params:
            if id(p) not in seen:
                seen.add(id(p))
                self.params.append(p)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += p.grad + self.weight_decay * p.value
            p.value -= self.lr * p.lr_mult * v  # v has the value's dtype


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _recorded(state):
    """A layer's state from its last forward; UsageError before any forward."""
    if state is None:
        raise UsageError("layer has no recorded forward state")
    return state


class Conv2dLayer:
    """Regular convolution layer."""

    def __init__(self, c_in: int, c_out: int, spec: KernelSpec,
                 rng: np.random.Generator, name: str = "conv"):
        scale = 1.0 / np.sqrt(c_in * spec.k)
        self.spec = spec
        self.weight = Param(rng.normal(0.0, scale, (c_out, c_in, spec.kernel_h, spec.kernel_w)),
                            name=f"{name}.weight")
        self.bias = Param(np.zeros(c_out), name=f"{name}.bias")
        self._x = None

    def params(self):
        return [self.weight, self.bias]

    def _weights(self) -> ConvWeights:
        return ConvWeights(self.weight.value, self.bias.value)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return dense_conv_forward(x, self._weights(), self.spec)

    def backward(self, gy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        gx, gw, gb = dense_conv_backward(_recorded(self._x), self._weights(), self.spec, gy,
                                         input_grad=input_grad)
        self.weight.grad += gw
        self.bias.grad += gb
        return gx


class DeformConv2dLayer:
    """Deformable convolution layer; modulated=True adds the dm_k channels.

    The sibling branch convolution (`offset_branch_forward`: 3K channels,
    or 2K with dm = 1 when unmodulated) is zero-initialized and its
    parameters carry the 0.1 learning-rate multiplier. Every call runs on a
    sorted list of flat output positions (see `forward`), with the field as
    its rows there. The last forward's input `_x`, field `_field` and list
    `_positions` stay recorded for `backward` and for spatial-support
    analysis. The readers of whole fields (`mean_abs_offset`,
    `support.effective_sampling_locations`) recompute the field over the
    whole map from the recorded input, which is always whole, with the
    current branch parameters.
    """

    def __init__(self, c_in: int, c_out: int, spec: KernelSpec,
                 rng: np.random.Generator, modulated: bool = True, name: str = "dconv"):
        scale = 1.0 / np.sqrt(c_in * spec.k)
        self.spec = spec
        self.modulated = modulated
        self.weight = Param(rng.normal(0.0, scale, (c_out, c_in, spec.kernel_h, spec.kernel_w)),
                            name=f"{name}.weight")
        self.bias = Param(np.zeros(c_out), name=f"{name}.bias")
        branch_out = 3 * spec.k if modulated else 2 * spec.k
        self.branch_weight = Param(
            np.zeros((branch_out, c_in, spec.kernel_h, spec.kernel_w)),
            lr_mult=BRANCH_LR_MULTIPLIER, name=f"{name}.branch_weight")
        self.branch_bias = Param(np.zeros(branch_out),
                                 lr_mult=BRANCH_LR_MULTIPLIER, name=f"{name}.branch_bias")
        self._x = None
        self._field = None
        self._positions = None

    def params(self):
        return [self.weight, self.bias, self.branch_weight, self.branch_bias]

    def _branch_weights(self) -> ConvWeights:
        return ConvWeights(self.branch_weight.value, self.branch_bias.value)

    def _weights(self) -> ConvWeights:
        return ConvWeights(self.weight.value, self.bias.value)

    def _map_shape(self, x: np.ndarray, c: int) -> tuple:
        """(N, c, H_out, W_out) of the output map for the input `x`."""
        return (len(x), c, *self.spec.out_size(*x.shape[2:]))

    def forward(self, x: np.ndarray, demand=None) -> np.ndarray:
        """The output map. The offset branch and the kernel compute, as rows,
        the positions of `demand`, a sorted list of flat output positions, or
        every position; the map is zero off the list, and `backward` treats
        it there as a constant.
        """
        x = np.asarray(x)
        if x.ndim != 4:
            raise ShapeError(f"input must be (N,C,H,W), got shape {x.shape}")
        shape = self._map_shape(x, len(self.bias.value))
        positions = np.arange(shape[0] * shape[2] * shape[3]) if demand is None else demand
        field = offset_branch_forward(x, self._branch_weights(), self.spec, positions)
        self._x, self._field, self._positions = x, field, positions
        y = mdconv_forward_optimized(x, self._weights(), self.spec, field, positions=positions)
        return pixel_map(y, positions, shape)

    def backward(self, gy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """The input gradient for the output map's gradient `gy`, read only at
        the last forward's positions; None with input_grad=False.
        """
        x, field, positions = _recorded(self._x), self._field, self._positions
        gy, want = np.asarray(gy), self._map_shape(x, len(self.bias.value))
        if gy.shape != want:
            raise ShapeError(f"upstream shape {gy.shape} != {want}")
        gx, gw, gb, goff, gmod = mdconv_backward_optimized(
            x, self._weights(), self.spec, field, pixel_rows(gy, positions), positions,
            input_grad)
        self.weight.grad += gw
        self.bias.grad += gb
        gx_branch, gbw, gbb = offset_branch_backward(
            x, self._branch_weights(), self.spec, field, goff, gmod, positions, input_grad)
        self.branch_weight.grad += gbw
        self.branch_bias.grad += gbb
        if input_grad:
            gx += gx_branch
        return gx

    def recorded_state(self):
        """(input, field) of the last forward, the field as whole maps, zero
        off the forward's positions.
        """
        x, field = _recorded(self._x), self._field
        return x, OffsetModulationField(*(
            pixel_map(a, self._positions, self._map_shape(x, a.shape[1]))
            for a in (field.offsets, field.modulation)))

    def _whole_field(self):
        """The whole-map field of the recorded input, under the current branch parameters."""
        return offset_branch_forward(_recorded(self._x), self._branch_weights(), self.spec)

    def mean_abs_offset(self) -> float:
        return float(np.abs(self._whole_field().offsets).mean())


class ReLULayer:
    def __init__(self):
        self._mask = None

    def params(self):
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = (x > 0).astype(x.dtype)
        return x * self._mask

    def backward(self, gy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        return gy * _recorded(self._mask) if input_grad else None


class AffineLayer:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, name: str = "fc"):
        self.weight = Param(rng.normal(0.0, 1.0 / np.sqrt(in_dim), (out_dim, in_dim)),
                            name=f"{name}.weight")
        self.bias = Param(np.zeros(out_dim), name=f"{name}.bias")
        self._x = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeError(f"affine expects (B, D), got {x.shape}")
        self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, gy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        self.weight.grad += gy.T @ _recorded(self._x)
        self.bias.grad += gy.sum(axis=0)
        return gy @ self.weight.value if input_grad else None


class Sequential:
    def __init__(self, layers):
        self.layers = list(layers)

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def out_hw(self, hw: tuple[int, int]) -> tuple[int, int]:
        """(H, W) of the output map for an (H, W) input map; every layer must
        be a convolution or a ReLU.
        """
        return functools.reduce(_out_hw, self.layers, hw)

    def forward(self, x, demand=None):
        """Each layer in turn; with `demand`, a sorted list of flat positions
        of the (N, H_out, W_out) output map, exact at those positions only.
        The demand is carried back through the layers after the last
        deformable layer (a ReLU passes it through, a regular conv dilates it
        by its kernel extent; any other layer raises UsageError, as in
        `out_hw`), and that layer computes only the positions it then
        demands. Every other layer runs in full, since the earlier ones feed
        sampling positions that can land anywhere.
        """
        last = max((i for i, l in enumerate(self.layers) if isinstance(l, DeformConv2dLayer)),
                   default=None)
        for i, layer in enumerate(self.layers):
            if i == last and demand is not None:
                x = layer.forward(x, _demand_before(self.layers[i + 1:],
                                                    layer.spec.out_size(*x.shape[2:]), demand))
            else:
                x = layer.forward(x)
        return x

    def backward(self, gy, input_grad: bool = True):
        """Each layer's backward in reverse order. A caller that discards the
        input gradient passes input_grad=False: the first layer then skips
        it, and None is returned.
        """
        for i in reversed(range(len(self.layers))):
            gy = self.layers[i].backward(gy, input_grad or i > 0)
        return gy


def _out_hw(hw: tuple[int, int], layer) -> tuple[int, int]:
    """(H, W) of a convolution's or a ReLU's output map; UsageError else."""
    if isinstance(layer, (Conv2dLayer, DeformConv2dLayer)):
        return layer.spec.out_size(*hw)
    if not isinstance(layer, ReLULayer):
        raise UsageError(f"{type(layer).__name__} has no output map")
    return hw


def _demand_before(layers, hw: tuple[int, int], demand):
    """The positions of the (N, *hw) map entering `layers`, regular convs and
    ReLUs, that their output positions `demand` read.
    """
    sizes = list(itertools.accumulate(layers, _out_hw, initial=hw))
    demand = np.asarray(demand)
    for layer, (h, w), (h_out, w_out) in reversed(list(zip(layers, sizes, sizes[1:]))):
        if isinstance(layer, Conv2dLayer):
            item, rows, cols = layer.spec.taps_at(demand, (h_out, w_out))
            # taps that land in the zero padding read nothing
            inside = (((rows >= 0) & (rows < h))[:, :, None]
                      & ((cols >= 0) & (cols < w))[:, None, :])
            flat = (item[:, None, None] * h + rows[:, :, None]) * w + cols[:, None, :]
            demand = np.unique(flat[inside])
    return demand


class RoIPoolLayer:
    """Aligned or modulated-deformable RoI pooling over per-call RoIs.

    In deformable mode the sibling fc branch (Gaussian hidden layers, zero
    output layer) is trained jointly; its fc parameters use the base rate.
    The branch runs once per call over all RoIs, in the input's compute
    dtype, and the recorded state is (x, rois) for aligned pooling and (x,
    rois, field, branch cache) for deformable pooling, whose forward also
    keeps X^T and the aligned pattern for its backward. `backward` takes the
    upstream gradient as (R, C, bins_h, bins_w) or as the (R, C*K) rows a
    head's backward gives.
    """

    def __init__(self, c_in: int, spec: PoolSpec, rng: np.random.Generator,
                 deformable: bool = False, hidden: int = 64, name: str = "pool"):
        self.spec = spec
        self.deformable = deformable
        self._cache = None
        if deformable:
            fc1, fc2, out = make_roi_branch(c_in * spec.k, spec.k, hidden, rng)
            self.fc1_w = Param(fc1.weight, name=f"{name}.fc1.weight")
            self.fc1_b = Param(fc1.bias, name=f"{name}.fc1.bias")
            self.fc2_w = Param(fc2.weight, name=f"{name}.fc2.weight")
            self.fc2_b = Param(fc2.bias, name=f"{name}.fc2.bias")
            self.out_w = Param(out.weight, name=f"{name}.out.weight")
            self.out_b = Param(out.bias, name=f"{name}.out.bias")

    def params(self):
        if not self.deformable:
            return []
        return [self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b, self.out_w, self.out_b]

    def _affines(self):
        """The branch fc layers over the parameter values."""
        return (Affine(self.fc1_w.value, self.fc1_b.value),
                Affine(self.fc2_w.value, self.fc2_b.value),
                Affine(self.out_w.value, self.out_b.value))

    def demand(self, shape: tuple[int, int, int], rois: list[RoI]):
        """What `forward` reads of an (N, H, W) map for `rois`, as a sorted
        list of flat positions (see `Sequential.forward`): the pixels with a
        non-zero aligned-pooling weight; None, every position, for
        deformable pooling, whose bins can move anywhere.
        """
        return None if self.deformable else aligned_pool_reads(shape, rois, self.spec)

    def forward(self, x: np.ndarray, rois: list[RoI]) -> np.ndarray:
        if not self.deformable:
            self._cache = (x, rois)
            return aligned_pool_forward(x, rois, self.spec)
        out, self._cache = _deformable_pool_forward(x, rois, self.spec, *self._affines())
        return out

    def backward(self, gy: np.ndarray) -> np.ndarray:
        x, rois = self.recorded_state()[:2]
        rows = (len(rois), x.shape[1] * self.spec.k)
        if np.shape(gy) == rows:  # a head's rows; the kernels check any other shape
            gy = np.reshape(gy, (len(rois), x.shape[1], self.spec.bins_h, self.spec.bins_w))
        if not self.deformable:
            return aligned_pool_backward(x, rois, self.spec, gy)
        gx, grads = _deformable_pool_backward(self._cache, self.spec, *self._affines(), gy)
        for p, g in zip(self.params(), (g for pair in grads for g in pair)):
            p.grad += g
        return gx

    def recorded_state(self):
        return _recorded(self._cache)[:4]


def roi_readout(trunk: Sequential, pool: RoIPoolLayer, images, rois: list[RoI]) -> np.ndarray:
    """(R, C*K) rows of `pool` over the trunk's output for `images`; the
    trunk computes only what the pooling reads of it (see
    `Sequential.forward`), so its last deformable layer records a demanded
    field for aligned pooling.
    """
    x = np.asarray(images).astype(COMPUTE_DTYPE)
    demand = pool.demand((x.shape[0], *trunk.out_hw(x.shape[2:])), rois)
    pooled = pool.forward(trunk.forward(x, demand), rois)
    return pooled.reshape(pooled.shape[0], -1)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all entries; returns (loss, grad_pred)."""
    diff = pred.astype(np.float64) - target.astype(np.float64)
    loss = float((diff * diff).mean())
    return loss, (2.0 * diff / diff.size).astype(pred.dtype)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch; returns (loss, grad_logits)."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    b = z.shape[0]
    ll = -np.log(np.maximum(p[np.arange(b), labels], 1e-300))
    grad = p.copy()
    grad[np.arange(b), labels] -= 1.0
    return float(ll.mean()), (grad / b).astype(logits.dtype)

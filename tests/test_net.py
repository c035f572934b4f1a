import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcn2.deform_conv import KernelSpec
from dcn2.deform_roipool import PoolSpec, make_roi_branch
from dcn2.errors import ShapeError, UsageError
from dcn2.net import (
    AffineLayer,
    Conv2dLayer,
    DeformConv2dLayer,
    ReLULayer,
    RoIPoolLayer,
    Sequential,
)
from dcn2.support import network_probe

LAYERS = {
    "conv": lambda rng: Conv2dLayer(2, 2, KernelSpec(3, 3, pad=(1, 1)), rng),
    "deform_conv": lambda rng: DeformConv2dLayer(2, 2, KernelSpec(3, 3, pad=(1, 1)), rng),
    "relu": lambda rng: ReLULayer(),
    "affine": lambda rng: AffineLayer(2, 2, rng),
    "aligned_pool": lambda rng: RoIPoolLayer(2, PoolSpec(1, 1), rng),
    "deformable_pool": lambda rng: RoIPoolLayer(2, PoolSpec(1, 1), rng, deformable=True,
                                                hidden=4),
}


@pytest.mark.parametrize("kind", sorted(LAYERS))
def test_backward_before_forward_is_usage_error(kind):
    layer = LAYERS[kind](np.random.default_rng(0))
    with pytest.raises(UsageError):
        layer.backward(np.zeros((1, 2, 1, 1)) if kind != "affine" else np.zeros((1, 2)))
    for state in ("recorded_state", "mean_abs_offset"):
        if hasattr(layer, state):
            with pytest.raises(UsageError):
                getattr(layer, state)()


def test_deform_layer_checks_its_input_and_upstream_maps():
    rng = np.random.default_rng(22)
    layer = LAYERS["deform_conv"](rng)
    x = rng.normal(size=(1, 2, 5, 4)).astype(np.float32)
    with pytest.raises(ShapeError, match="input must be"):
        layer.forward(x[0])
    for demand in (None, [0, 7]):
        y = layer.forward(x, demand)
        for bad in (y[..., :-1], y[0], y.reshape(1, 2, -1)):
            with pytest.raises(ShapeError, match="upstream shape"):
                layer.backward(bad)


@pytest.mark.parametrize("kind", ["affine", "aligned_pool"])
def test_trunk_layer_without_an_output_map_is_usage_error(kind):
    rng = np.random.default_rng(5)
    trunk = Sequential([LAYERS["conv"](rng), LAYERS[kind](rng)])
    with pytest.raises(UsageError, match="has no output map"):
        trunk.out_hw((6, 6))
    with pytest.raises(UsageError, match="has no output map"):
        network_probe(trunk, 0, 0).response(rng.normal(size=(2, 6, 6)))


def test_pool_layer_branch_is_make_roi_branch():
    c_in, spec, hidden = 3, PoolSpec(2, 3), 5
    layer = RoIPoolLayer(c_in, spec, np.random.default_rng(4), deformable=True, hidden=hidden)
    fc1, fc2, out = make_roi_branch(c_in * spec.k, spec.k, hidden, np.random.default_rng(4))
    want = [fc1.weight, fc1.bias, fc2.weight, fc2.bias, out.weight, out.bias]
    assert len(layer.params()) == len(want)
    for p, w in zip(layer.params(), want):
        assert p.value.dtype == np.float32
        assert np.array_equal(p.value, w.astype(np.float32))


def test_mean_abs_offset_after_demanded_forward_equals_full_forward():
    rng = np.random.default_rng(5)
    layer = DeformConv2dLayer(2, 2, KernelSpec(3, 3, pad=(1, 1)), rng)
    for p in (layer.branch_weight, layer.branch_bias):
        p.value[...] = rng.normal(0.0, 0.5, p.value.shape)
    x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
    layer.forward(x)
    want = layer.mean_abs_offset()
    layer.forward(x, [0, 5])
    # the recorded field is zero at 14 of 16 positions; the reader recomputes it whole
    assert np.count_nonzero(layer.recorded_state()[1].offsets.any(axis=1)) == 2
    assert layer.mean_abs_offset() == want > 0


@st.composite
def demanded_stacks(draw):
    """A deformable layer with moving offsets, then regular convs of random
    kernel size, stride, pad and dilation (some behind a ReLU), an input and
    a demand on the output map.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, hw = draw(st.integers(1, 2)), (draw(st.integers(5, 14)), draw(st.integers(5, 14)))
    deform = DeformConv2dLayer(2, 2, KernelSpec(3, 3, pad=(1, 1)), rng)
    for p in (deform.branch_weight, deform.branch_bias):
        p.value[...] = rng.normal(0.0, 0.5, p.value.shape)
    layers, out_hw = [deform], hw
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            layers.append(ReLULayer())
        spec = KernelSpec(*(draw(st.integers(1, 4)) for _ in range(2)),
                          stride=tuple(draw(st.integers(1, 3)) for _ in range(2)),
                          pad=tuple(draw(st.integers(0, 3)) for _ in range(2)),
                          dilation=tuple(draw(st.integers(1, 3)) for _ in range(2)))
        try:
            out_hw = spec.out_size(*out_hw)
        except ShapeError:
            assume(False)
        assume(min(out_hw) >= 1)
        layers.append(Conv2dLayer(2, 2, spec, rng))
    size = n * out_hw[0] * out_hw[1]
    demand = np.sort(rng.choice(size, size=draw(st.integers(1, size)), replace=False))
    x = rng.normal(size=(n, 2, *hw)).astype(np.float32)
    return Sequential(layers), x, demand


@settings(max_examples=60, deadline=None)
@given(demanded_stacks())
def test_demanded_forward_matches_full_forward_after_any_conv_geometry(case):
    # a demand walk that missed a pixel some tap reads would leave it zero
    net, x, demand = case
    full, got = net.forward(x), net.forward(x, demand)
    rows = full.transpose(0, 2, 3, 1).reshape(-1, full.shape[1])[demand]
    got_rows = got.transpose(0, 2, 3, 1).reshape(-1, got.shape[1])[demand]
    assert np.abs(got_rows - rows).max() <= 1e-5 * max(np.abs(rows).max(), 1e-30)


def test_one_position_demand_gives_the_full_forward_bit_for_bit():
    # a one-row product goes to gemv, which rounds unlike the full map's gemm;
    # where the output cancels, that ulp shows as a large relative error
    for seed in range(20):
        rng = np.random.default_rng(seed)
        deform = DeformConv2dLayer(2, 2, KernelSpec(3, 3, pad=(1, 1)), rng)
        for p in (deform.branch_weight, deform.branch_bias):
            p.value[...] = rng.normal(0.0, 0.5, p.value.shape)
        net = Sequential([deform, Conv2dLayer(2, 2, KernelSpec(1, 1), rng)])
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        full = net.forward(x).transpose(0, 2, 3, 1).reshape(-1, 2)
        for at in (0, 12, 24):
            got = net.forward(x, [at]).transpose(0, 2, 3, 1).reshape(-1, 2)
            assert np.array_equal(got[at], full[at])


@pytest.mark.parametrize("first", ["conv", "deform_conv", "affine"])
def test_discarded_input_gradient_is_skipped_and_changes_no_parameter_gradient(first):
    rng = np.random.default_rng(21)
    if first == "affine":
        model = Sequential([AffineLayer(6, 4, rng), ReLULayer(), AffineLayer(4, 3, rng)])
        x, demand = rng.normal(size=(5, 6)), None
    else:
        model = Sequential([LAYERS[first](rng), ReLULayer(),
                            DeformConv2dLayer(2, 2, KernelSpec(3, 3, pad=(1, 1)), rng)])
        for p in model.params():
            p.value[...] = rng.normal(0.0, 0.3, p.value.shape)
        x, demand = rng.normal(size=(2, 2, 6, 5)).astype(np.float32), [3, 17, 40]
    grads = []
    for input_grad in (True, False):
        for p in model.params():
            p.zero_grad()
        y = model.forward(x, demand)
        assert (model.backward(np.ones_like(y), input_grad=input_grad) is None) == (not input_grad)
        grads.append([p.grad.copy() for p in model.params()])
    for a, b in zip(*grads):
        assert np.array_equal(a, b)

import numpy as np
import pytest

from dcn2.deform_conv import KernelSpec
from dcn2.deform_roipool import PoolSpec, make_roi_branch
from dcn2.errors import UsageError
from dcn2.net import AffineLayer, Conv2dLayer, DeformConv2dLayer, ReLULayer, RoIPoolLayer

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


def test_pool_layer_branch_is_make_roi_branch():
    c_in, spec, hidden = 3, PoolSpec(2, 3), 5
    layer = RoIPoolLayer(c_in, spec, np.random.default_rng(4), deformable=True, hidden=hidden)
    fc1, fc2, out = make_roi_branch(c_in * spec.k, spec.k, hidden, np.random.default_rng(4))
    want = [fc1.weight, fc1.bias, fc2.weight, fc2.bias, out.weight, out.bias]
    assert len(layer.params()) == len(want)
    for p, w in zip(layer.params(), want):
        assert p.value.dtype == np.float32
        assert np.array_equal(p.value, w.astype(np.float32))


def test_mean_abs_offset_refuses_demanded_forward():
    rng = np.random.default_rng(5)
    layer = DeformConv2dLayer(2, 2, KernelSpec(3, 3, pad=(1, 1)), rng)
    layer.branch_bias.value[...] = 0.75  # every offset 0.75 over the whole map
    x = rng.normal(size=(1, 2, 4, 4))
    layer.forward(x, [0, 5])
    # the demanded field is zero at 14 of 16 positions: its mean would read 0.09
    with pytest.raises(UsageError):
        layer.mean_abs_offset()
    assert layer.recorded_state()[0] is x
    layer.forward(x)
    assert layer.mean_abs_offset() == pytest.approx(0.75)

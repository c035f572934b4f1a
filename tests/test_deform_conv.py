import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcn2.checks import run_gradcheck
from dcn2.deform_conv import (
    BRANCH_LR_MULTIPLIER,
    ConvWeights,
    KernelSpec,
    OffsetModulationField,
    dense_conv_backward,
    dense_conv_forward,
    mdconv_backward,
    mdconv_backward_optimized,
    mdconv_forward,
    mdconv_forward_optimized,
    offset_branch_backward,
    offset_branch_forward,
    _gemm,
)
from dcn2.errors import ArgumentError, ShapeError
from dcn2.mimic import MimicBatch, MimicConfig, mimic_step
from dcn2.net import SGD, DeformConv2dLayer
from dcn2.oracle import dcnv1_conv_oracle, dense_conv_oracle
from dcn2.sampling import pixel_map, pixel_rows
from dcn2.support import effective_sampling_locations
from dcn2.synthetic import SyntheticTask, ToyNetConfig, build_two_branch_model


def identity_field(n, k, h_out, w_out, modulation=1.0):
    """dp = 0 with constant modulation (1.0 recovers a rigid convolution)."""
    return OffsetModulationField(np.zeros((n, 2 * k, h_out, w_out)),
                                 np.full((n, k, h_out, w_out), modulation, dtype=np.float64))


def random_spec(rng):
    kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    return KernelSpec(
        kh, kw,
        stride=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
        pad=(int(rng.integers(0, 3)), int(rng.integers(0, 3))),
        dilation=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
    )


def random_instance(rng, offset_scale=2.0, modulation=None):
    spec = random_spec(rng)
    n = int(rng.integers(1, 3))
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 4))
    h = int(rng.integers(spec.kernel_h * spec.dilation[0], spec.kernel_h * spec.dilation[0] + 5))
    w = int(rng.integers(spec.kernel_w * spec.dilation[1], spec.kernel_w * spec.dilation[1] + 5))
    h_out, w_out = spec.out_size(h, w)
    if h_out < 1 or w_out < 1:
        return None
    x = rng.normal(size=(n, c_in, h, w))
    weights = ConvWeights(
        rng.normal(size=(c_out, c_in, spec.kernel_h, spec.kernel_w)),
        rng.normal(size=c_out) if rng.random() < 0.5 else np.zeros(c_out),
    )
    offsets = rng.uniform(-offset_scale, offset_scale, size=(n, 2 * spec.k, h_out, w_out))
    if modulation is None:
        mods = rng.uniform(0.0, 1.0, size=(n, spec.k, h_out, w_out))
    else:
        mods = np.full((n, spec.k, h_out, w_out), modulation)
    return spec, x, weights, OffsetModulationField(offsets, mods)


def test_degenerates_to_dense_conv():
    rng = np.random.default_rng(0)
    done = 0
    while done < 40:
        inst = random_instance(rng, offset_scale=0.0, modulation=1.0)
        if inst is None:
            continue
        done += 1
        spec, x, weights, field = inst
        got = mdconv_forward(x, weights, spec, field)
        want = dense_conv_oracle(x, weights.weight, spec, weights.bias)
        assert np.abs(got - want).max() < 1e-5


def test_degenerates_to_dcnv1_when_modulation_one():
    rng = np.random.default_rng(1)
    done = 0
    while done < 25:
        inst = random_instance(rng, offset_scale=3.0, modulation=1.0)
        if inst is None:
            continue
        done += 1
        spec, x, weights, field = inst
        got = mdconv_forward(x, weights, spec, field)
        want = dcnv1_conv_oracle(x, weights.weight, spec, field.offsets, weights.bias)
        assert np.abs(got - want).max() < 1e-5


def test_zero_modulation_leaves_only_bias():
    rng = np.random.default_rng(2)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(1, 2, 5, 5))
    bias = rng.normal(size=3)
    weights = ConvWeights(rng.normal(size=(3, 2, 3, 3)), bias)
    field = identity_field(1, spec.k, 5, 5, modulation=0.0)
    out = mdconv_forward(x, weights, spec, field)
    assert np.allclose(out, bias[None, :, None, None], atol=1e-12)


def test_half_modulation_halves_dense_conv():
    rng = np.random.default_rng(3)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(1, 2, 6, 6))
    weights = ConvWeights(rng.normal(size=(2, 2, 3, 3)), np.zeros(2))
    field = identity_field(1, spec.k, 6, 6, modulation=0.5)
    got = mdconv_forward(x, weights, spec, field)
    want = 0.5 * dense_conv_oracle(x, weights.weight, spec)
    assert np.abs(got - want).max() < 1e-5


def test_linearity_in_input_and_weights():
    rng = np.random.default_rng(4)
    spec = KernelSpec(3, 3)
    h_out, w_out = spec.out_size(6, 6)
    field = OffsetModulationField(
        rng.uniform(-1.5, 1.5, size=(1, 18, h_out, w_out)),
        rng.uniform(0, 1, size=(1, 9, h_out, w_out)),
    )
    x1, x2 = rng.normal(size=(2, 1, 2, 6, 6))
    w1, w2 = rng.normal(size=(2, 2, 2, 3, 3))
    a, b = 1.7, -0.3
    zero = np.zeros(2)

    combined = mdconv_forward(a * x1 + b * x2, ConvWeights(w1, zero), spec, field)
    split = a * mdconv_forward(x1, ConvWeights(w1, zero), spec, field) \
        + b * mdconv_forward(x2, ConvWeights(w1, zero), spec, field)
    assert np.abs(combined - split).max() < 1e-10

    combined = mdconv_forward(x1, ConvWeights(a * w1 + b * w2, zero), spec, field)
    split = a * mdconv_forward(x1, ConvWeights(w1, zero), spec, field) \
        + b * mdconv_forward(x1, ConvWeights(w2, zero), spec, field)
    assert np.abs(combined - split).max() < 1e-10


def test_optimized_matches_reference_fuzz():
    rng = np.random.default_rng(5)
    done = 0
    while done < 50:
        inst = random_instance(rng, offset_scale=3.0)
        if inst is None:
            continue
        done += 1
        spec, x, weights, field = inst
        ref = mdconv_forward(x, weights, spec, field)
        opt = mdconv_forward_optimized(x, weights, spec, field)
        assert np.abs(ref - opt).max() < 1e-5

        upstream = rng.normal(size=ref.shape)
        ref_g = mdconv_backward(x, weights, spec, field, upstream)
        opt_g = mdconv_backward_optimized(x, weights, spec, field, upstream)
        for a, b in zip(ref_g, opt_g):
            assert np.abs(a - b).max() < 1e-5


# float32 carries ~7 significant digits and every output or gradient entry
# sums at most a few hundred products here, so 1e-4 of the largest reference
# value in a block leaves a wide margin
F32_REL_TOL = 1e-4


def test_float32_optimized_matches_float64_reference():
    rng = np.random.default_rng(13)
    done = 0
    while done < 20:
        inst = random_instance(rng, offset_scale=3.0)
        if inst is None:
            continue
        done += 1
        spec, x, weights, field = inst
        # half the offsets integer: those samples sit exactly on the lattice
        # (the last row and column included), where the floor cell decides
        offsets = field.offsets.copy()
        on_lattice = rng.random(offsets.shape) < 0.5
        offsets[on_lattice] = np.round(offsets[on_lattice])
        f32 = [a.astype(np.float32) for a in (x, weights.weight, offsets, field.modulation)]
        bias32 = weights.bias.astype(np.float32)
        x32, w32, off32, mod32 = f32
        # the reference sees the very same float32 values, in float64
        x64, w64, off64, mod64 = (a.astype(np.float64) for a in f32)
        bias64 = bias32.astype(np.float64)
        field32 = OffsetModulationField(off32, mod32)
        field64 = OffsetModulationField(off64, mod64)

        ref = mdconv_forward(x64, ConvWeights(w64, bias64), spec, field64)
        opt = mdconv_forward_optimized(x32, ConvWeights(w32, bias32), spec, field32)
        upstream = rng.normal(size=ref.shape).astype(np.float32)
        ref_g = mdconv_backward(x64, ConvWeights(w64, bias64), spec, field64,
                                upstream.astype(np.float64))
        opt_g = mdconv_backward_optimized(x32, ConvWeights(w32, bias32), spec, field32, upstream)
        for a, b in zip((ref,) + ref_g, (opt,) + opt_g):
            assert b.dtype == np.float32
            assert np.abs(a - b).max() <= F32_REL_TOL * max(1.0, np.abs(a).max())


def test_lattice_samples_use_floor_cell_derivative():
    # a 1x1 kernel whose every sample sits exactly on the last row, at every
    # column: d/dy is taken on the floor cell, whose lower row is the zero
    # padding, and d/dx toward the next column (the padding on the last one)
    rng = np.random.default_rng(14)
    h, w = 3, 4
    x = rng.normal(size=(1, 1, h, w))
    spec = KernelSpec(1, 1)
    offsets = np.zeros((1, 2, h, w))
    offsets[0, 0] = (h - 1) - np.arange(h)[:, None]
    field = OffsetModulationField(offsets, np.ones((1, 1, h, w)))
    weights = ConvWeights(np.ones((1, 1, 1, 1)), np.zeros(1))
    last = x[0, 0, h - 1]
    want_dy = np.broadcast_to(-last, (h, w))
    want_dx = np.broadcast_to(np.append(last[1:] - last[:-1], -last[-1]), (h, w))
    for forward, backward in ((mdconv_forward, mdconv_backward),
                              (mdconv_forward_optimized, mdconv_backward_optimized)):
        assert np.allclose(forward(x, weights, spec, field)[0, 0], np.broadcast_to(last, (h, w)))
        _, _, _, goff, _ = backward(x, weights, spec, field, np.ones((1, 1, h, w)))
        assert np.allclose(goff[0, 0], want_dy, atol=1e-12)
        assert np.allclose(goff[0, 1], want_dx, atol=1e-12)


def test_kernel_threads_keep_the_callers_errstate(monkeypatch, kernel_threads):
    import dcn2.deform_conv as dc

    # a float32 forward whose weights overflow the GEMM, tiled onto 2 threads
    monkeypatch.setattr(dc, "_CHUNK_BUDGET", 200)
    kernel_threads(2)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = np.ones((2, 2, 8, 8), dtype=np.float32)
    weights = ConvWeights(np.full((2, 2, 3, 3), 1e38, dtype=np.float32),
                          np.zeros(2, np.float32))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        mdconv_forward_optimized(x, weights, spec, identity_field(2, 9, 8, 8))


def test_backward_threaded_matches_serial(monkeypatch, kernel_threads):
    import dcn2.deform_conv as dc

    rng = np.random.default_rng(6)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(2, 4, 40, 9))
    weights = ConvWeights(rng.normal(size=(3, 4, 3, 3)), rng.normal(size=3))
    h_out, w_out = spec.out_size(40, 9)
    field = OffsetModulationField(
        rng.uniform(-2, 2, size=(2, 18, h_out, w_out)),
        rng.uniform(0, 1, size=(2, 9, h_out, w_out)),
    )
    upstream = rng.normal(size=(2, 3, h_out, w_out))
    kernel_threads(1)
    whole = mdconv_backward_optimized(x, weights, spec, field, upstream)
    # shrink the chunk budget so the tiled path (and threading) really runs
    monkeypatch.setattr(dc, "_CHUNK_BUDGET", 2000)
    serial = mdconv_backward_optimized(x, weights, spec, field, upstream)
    fwd_whole = mdconv_forward_optimized(x, weights, spec, field)
    kernel_threads(4)
    threaded = mdconv_backward_optimized(x, weights, spec, field, upstream)
    fwd_tiled = mdconv_forward_optimized(x, weights, spec, field)
    assert np.abs(fwd_whole - fwd_tiled).max() < 1e-10
    for w_, a, b in zip(whole, serial, threaded):
        assert np.abs(w_ - a).max() < 1e-10  # tiling changes only summation order
        assert np.array_equal(a, b)  # ordered reduction: bit identical


def test_constant_input_zero_offset_gradient():
    spec = KernelSpec(3, 3)
    x = np.full((1, 2, 6, 6), 1.5)
    h_out, w_out = spec.out_size(6, 6)
    rng = np.random.default_rng(7)
    field = OffsetModulationField(
        rng.uniform(-0.8, 0.8, size=(1, 18, h_out, w_out)),
        rng.uniform(0.2, 0.9, size=(1, 9, h_out, w_out)),
    )
    weights = ConvWeights(rng.normal(size=(2, 2, 3, 3)), np.zeros(2))
    upstream = rng.normal(size=(1, 2, h_out, w_out))
    # interior positions only: border taps see the zero-padding step
    _, _, _, goff, _ = mdconv_backward(x, weights, spec, field, upstream)
    assert np.abs(goff[:, :, 1:-1, 1:-1]).max() < 1e-9


def test_zero_modulation_kills_x_and_w_grads_not_modulation():
    rng = np.random.default_rng(8)
    spec = KernelSpec(3, 3)
    x = rng.normal(size=(1, 2, 5, 5))
    weights = ConvWeights(rng.normal(size=(2, 2, 3, 3)), np.zeros(2))
    h_out, w_out = spec.out_size(5, 5)
    field = identity_field(1, spec.k, h_out, w_out, modulation=0.0)
    upstream = rng.normal(size=(1, 2, h_out, w_out))
    gx, gw, _, _, gmod = mdconv_backward(x, weights, spec, field, upstream)
    assert np.all(gx == 0)
    assert np.all(gw == 0)
    assert np.abs(gmod).max() > 0


def test_gradcheck_mdconv_block_count_and_pass():
    reports = run_gradcheck("mdconv", seeds=5)
    assert len(reports) == 5
    for rep in reports:
        assert {b.name for b in rep.blocks} == {"x", "weight", "bias", "offsets", "modulation"}
        assert rep.passed, rep.to_json()


def test_layer_gradcheck_targets_pass():
    # whole DeformConv2dLayer, offset branch included, modulated and not
    for op in ("mdconv_layer", "dconv_layer"):
        reports = run_gradcheck(op, seeds=3)
        assert [b.name for b in reports[0].blocks] == [
            "x", "weight", "bias", "branch_weight", "branch_bias"]
        for rep in reports:
            assert rep.passed, rep.to_json()


def test_mdconv_geometry_gradcheck_target_passes():
    # stride 2, pad 1, dilation 2: samples off the image and spread-out taps
    reports = run_gradcheck("mdconv_geometry", seeds=5)
    assert [b.name for b in reports[0].blocks] == [
        "x", "weight", "bias", "offsets", "modulation"]
    for rep in reports:
        assert rep.passed, rep.to_json()


def test_reference_pair_also_gradchecks():
    # the registered target exercises the optimized pair; spot-check the
    # reference kernels against finite differences too
    import dcn2.checks as checks
    from dcn2.oracle import finite_diff

    rng = np.random.default_rng(9)
    spec, x, w, offsets, modulation, upstream = checks._mdconv_instance_parts(rng)
    field = OffsetModulationField(offsets, modulation)
    _, _, _, goff, _ = mdconv_backward(x, w, spec, field, upstream)

    def f(off):
        out = mdconv_forward(x, w, spec, OffsetModulationField(off, modulation))
        return float((out * upstream).sum())

    numeric = finite_diff(f, offsets)
    denom = np.maximum(np.maximum(np.abs(goff), np.abs(numeric)), 1e-6)
    keep = (np.abs(goff) + np.abs(numeric)) > 1e-7
    assert (np.abs(goff - numeric) / denom)[keep].max() < 1e-3


def test_offset_branch_zero_init_contract():
    rng = np.random.default_rng(10)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(2, 3, 6, 6))
    k = spec.k
    branch = ConvWeights(np.zeros((3 * k, 3, 3, 3)), np.zeros(3 * k))
    field = offset_branch_forward(x, branch, spec)
    assert np.all(field.offsets == 0.0)
    assert np.all(field.modulation == 0.5)
    # a 2K branch is the unmodulated case: same field shapes, dm fixed at 1
    v1 = offset_branch_forward(x, ConvWeights(np.zeros((2 * k, 3, 3, 3)), np.zeros(2 * k)), spec)
    assert v1.offsets.shape == field.offsets.shape == (2, 2 * k, 6, 6)
    assert v1.modulation.shape == field.modulation.shape == (2, k, 6, 6)
    assert np.all(v1.offsets == 0.0)
    assert np.all(v1.modulation == 1.0)


def test_offset_branch_sigmoid_saturation():
    spec = KernelSpec(1, 1)
    x = np.ones((1, 1, 3, 3))
    branch = ConvWeights(np.zeros((3, 1, 1, 1)), np.array([0.0, 0.0, 20.0]))
    field = offset_branch_forward(x, branch, spec)
    assert np.abs(field.modulation - 1.0).max() < 1e-8


def test_offset_branch_output_shapes():
    rng = np.random.default_rng(11)
    spec = KernelSpec(3, 3, stride=(2, 2), pad=(1, 1))
    x = rng.normal(size=(2, 3, 9, 11))
    k = spec.k
    branch = ConvWeights(rng.normal(size=(3 * k, 3, 3, 3)) * 0.1, np.zeros(3 * k))
    field = offset_branch_forward(x, branch, spec)
    h_out, w_out = spec.out_size(9, 11)
    assert field.offsets.shape == (2, 2 * k, h_out, w_out)
    assert field.modulation.shape == (2, k, h_out, w_out)
    assert field.modulation.min() >= 0.0 and field.modulation.max() <= 1.0


def test_offset_branch_channel_count_enforced():
    spec = KernelSpec(3, 3)
    with pytest.raises(ShapeError):
        offset_branch_forward(np.zeros((1, 1, 5, 5)),
                              ConvWeights(np.zeros((10, 1, 3, 3)), np.zeros(10)), spec)


def test_branch_lr_multiplier_descriptor():
    from dcn2.net import DeformConv2dLayer

    layer = DeformConv2dLayer(2, 2, KernelSpec(3, 3, pad=(1, 1)),
                              np.random.default_rng(0))
    assert BRANCH_LR_MULTIPLIER == 0.1
    assert layer.branch_weight.lr_mult == 0.1
    assert layer.branch_bias.lr_mult == 0.1
    assert layer.weight.lr_mult == 1.0


def test_empty_batch_gives_empty_output():
    spec = KernelSpec(3, 3)
    weights = ConvWeights(np.zeros((2, 2, 3, 3)), np.zeros(2))
    # an empty batch, and an input smaller than the kernel (an empty map)
    for x, out_hw in ((np.zeros((0, 2, 5, 5)), (3, 3)), (np.ones((1, 2, 2, 2)), (0, 0))):
        n = x.shape[0]
        field = identity_field(n, 9, *out_hw)
        out = mdconv_forward_optimized(x, weights, spec, field)
        assert out.shape == (n, 2, *out_hw)
        grads = mdconv_backward_optimized(x, weights, spec, field, out)
        assert [g.shape for g in grads] == [x.shape, weights.weight.shape, weights.bias.shape,
                                            field.offsets.shape, field.modulation.shape]
        assert not any(g.any() for g in grads)
        branch = ConvWeights(np.zeros((27, 2, 3, 3)), np.zeros(27))
        assert offset_branch_forward(x, branch, spec).offsets.shape == field.offsets.shape


def test_zero_output_channels_reference_matches_optimized():
    rng = np.random.default_rng(14)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(2, 2, 5, 4))
    weights = ConvWeights(np.zeros((0, 2, 3, 3)), np.zeros(0))
    field = OffsetModulationField(rng.uniform(-1.0, 1.0, (2, 18, 5, 4)),
                                  rng.uniform(0.2, 0.9, (2, 9, 5, 4)))
    ref = mdconv_forward(x, weights, spec, field)
    assert ref.shape == (2, 0, 5, 4)
    assert np.array_equal(ref, mdconv_forward_optimized(x, weights, spec, field))
    upstream = np.zeros((2, 0, 5, 4))
    for a, b in zip(mdconv_backward(x, weights, spec, field, upstream),
                    mdconv_backward_optimized(x, weights, spec, field, upstream)):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_nonfinite_offsets_rejected():
    with pytest.raises(ArgumentError):
        OffsetModulationField(np.full((1, 2, 1, 1), np.inf), np.ones((1, 1, 1, 1)))


def test_modulation_range_enforced():
    for bad in (1.5, -0.5, np.nan):
        with pytest.raises(ArgumentError):
            OffsetModulationField(np.zeros((1, 2, 1, 1)), np.full((1, 1, 1, 1), bad))


def test_dense_conv_backward_matches_finite_diff():
    from dcn2.oracle import finite_diff

    rng = np.random.default_rng(12)
    spec = KernelSpec(3, 3, stride=(2, 1), pad=(1, 1), dilation=(1, 2))
    x = rng.normal(size=(2, 2, 7, 8))
    weights = ConvWeights(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3))
    out = dense_conv_forward(x, weights, spec)
    upstream = rng.normal(size=out.shape)
    gx, gw, gb = dense_conv_backward(x, weights, spec, upstream)

    def check(analytic, value, rebuild):
        numeric = finite_diff(lambda v: float((dense_conv_forward(*rebuild(v)) * upstream).sum()),
                              value)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    check(gx, x, lambda v: (v, weights, spec))
    check(gw, weights.weight, lambda v: (x, ConvWeights(v, weights.bias), spec))
    check(gb, weights.bias, lambda v: (x, ConvWeights(weights.weight, v), spec))


def _padded_im2col(a: np.ndarray, spec: KernelSpec, out_hw) -> np.ndarray:
    """(N*H_out*W_out, C*kh*kw) im2col rows, C-contiguous, of `a` zero-padded
    by spec.pad, built tap by tap from strided slices of the padded map.
    """
    (ph, pw), (sh, sw), (dh, dw) = spec.pad, spec.stride, spec.dilation
    h_out, w_out = out_hw
    ap = np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    taps = [ap[:, :, u * dh : u * dh + sh * (h_out - 1) + 1 : sh,
               v * dw : v * dw + sw * (w_out - 1) + 1 : sw]
            for u in range(spec.kernel_h) for v in range(spec.kernel_w)]
    cols = np.stack(taps, axis=2)  # (N, C, K, H_out, W_out)
    return np.ascontiguousarray(cols.transpose(0, 3, 4, 1, 2)).reshape(-1, a.shape[1] * spec.k)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_dense_list_rows_are_the_padded_maps_im2col_rows_property(data):
    """Under a position list the dense convolution reads its im2col rows from
    the unpadded input. The forward equals, bit for bit, the weight product
    of a C-contiguous copy of the padded map's im2col rows at the positions,
    taps in the padding reading zero; the backward's grad_w is that copy's
    product with the upstream, and its float64 grad_x scatter is the one
    over the padded map, cropped: padding taps drop out.
    """
    kernel = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)), label="kernel")
    stride, pad, dilation = (data.draw(st.tuples(st.integers(lo, hi), st.integers(lo, hi)),
                                       label=name)
                             for name, lo, hi in (("stride", 1, 3), ("pad", 0, 3),
                                                  ("dilation", 1, 3)))
    spec = KernelSpec(*kernel, stride=stride, pad=pad, dilation=dilation)
    n, c, c_out = data.draw(st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)),
                            label="n, c_in, c_out")
    h, w = data.draw(st.tuples(st.integers(1, 7), st.integers(1, 7)), label="input")
    assume(h + 2 * pad[0] > dilation[0] * (kernel[0] - 1)
           and w + 2 * pad[1] > dilation[1] * (kernel[1] - 1))
    h_out, w_out = spec.out_size(h, w)
    total = n * h_out * w_out
    # a strict subset of the positions (the whole list takes the map path),
    # with every output map's corners when they leave room
    corners = {b * h_out * w_out + i * w_out + j for b in range(n)
               for i in (0, h_out - 1) for j in (0, w_out - 1)}
    picked = data.draw(st.sets(st.integers(0, total - 1), max_size=total - 1), label="picked")
    if data.draw(st.booleans(), label="with corners") and len(corners | picked) < total:
        picked |= corners
    positions = np.array(sorted(picked), dtype=np.int64)
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.normal(size=(n, c, h, w)).astype(dtype)
    weights = ConvWeights(rng.normal(size=(c_out, c, *kernel)).astype(dtype),
                          rng.normal(size=c_out).astype(dtype))
    g = rng.normal(size=(positions.size, c_out)).astype(dtype)

    rows = np.ascontiguousarray(_padded_im2col(x, spec, (h_out, w_out))[positions])
    wmat = weights.weight.reshape(c_out, -1)
    want = _gemm(rows, wmat.T)
    want += weights.bias
    got = dense_conv_forward(x, weights, spec, positions)
    assert got.dtype == dtype and got.shape == (positions.size, c_out)
    assert np.array_equal(got, want)

    gx, gw, gb = dense_conv_backward(x, weights, spec, g, positions)
    assert np.array_equal(gw, (g.T @ rows).reshape(weights.weight.shape))
    assert np.array_equal(gb, g.sum(axis=0, dtype=np.float64).astype(dtype))
    padded_hw = (h + 2 * pad[0], w + 2 * pad[1])
    flat = np.arange(n * c * padded_hw[0] * padded_hw[1], dtype=np.float64)
    index = _padded_im2col(flat.reshape(n, c, *padded_hw), KernelSpec(*kernel, stride=stride,
                                                                       dilation=dilation),
                           (h_out, w_out))[positions].astype(np.int64)
    scatter = np.bincount(index.reshape(-1), weights=_gemm(g, wmat).reshape(-1),
                          minlength=flat.size).reshape(n, c, *padded_hw)
    want_gx = scatter[:, :, pad[0] : pad[0] + h, pad[1] : pad[1] + w].astype(dtype)
    assert gx.dtype == dtype and np.array_equal(gx, want_gx)


@pytest.mark.parametrize("x_shape, w_shape, g_shape", [
    ((1, 2, 4, 4), (3, 2, 3, 3), (1, 4, 4, 3)),  # same size, channels last
    ((1, 2, 4, 4), (3, 2, 3, 3), (1, 3, 5, 5)),
    ((1, 2, 4, 4), (3, 1, 3, 3), (1, 3, 4, 4)),
    ((1, 2, 4, 4), (3, 2, 2, 2), (1, 3, 4, 4)),
    ((2, 4, 4), (3, 2, 3, 3), (1, 3, 4, 4)),
], ids=["upstream-transposed", "upstream-larger", "weights-c-in", "weights-kernel", "input-3d"])
def test_dense_conv_backward_rejects_misfit_arguments(x_shape, w_shape, g_shape):
    # numpy's reshape once raised ValueError here, or for a transposed
    # upstream of the right size returned wrong gradients
    with pytest.raises(ShapeError):
        dense_conv_backward(np.ones(x_shape), ConvWeights(np.ones(w_shape), np.zeros(w_shape[0])),
                            KernelSpec(3, 3, pad=(1, 1)), np.ones(g_shape))


@pytest.mark.parametrize("modulated", [True, False])
def test_offset_branch_backward_rejects_misfit_field_gradients(modulated):
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = np.ones((1, 2, 4, 4))
    channels = (3 if modulated else 2) * spec.k
    bw = ConvWeights(np.zeros((channels, 2, 3, 3)), np.zeros(channels))
    field = offset_branch_forward(x, bw, spec)
    g_off, g_mod = np.ones(field.offsets.shape), np.ones(field.modulation.shape)
    for bad in ((g_off[:, :, :3], g_mod), (g_off, g_mod[:, :4]), (g_off[:, :-2], g_mod)):
        with pytest.raises(ShapeError):
            offset_branch_backward(x, bw, spec, field, *bad)


# ---------------------------------------------------------------------------
# position lists: a forward computes only the positions it is given
# ---------------------------------------------------------------------------

def _rel_err(got, want) -> float:
    return float(np.abs(got - want).max(initial=0.0) / max(1.0, np.abs(want).max(initial=0.0)))


def _at(a, positions):
    """(P, C) values of an (N, C, H, W) map at flat positions."""
    n, c = a.shape[:2]
    return a.reshape(n, c, -1).transpose(0, 2, 1).reshape(-1, c)[positions]


def _rows_field(field, positions):
    """The (P, 2K) / (P, K) rows of a whole field at flat positions."""
    return OffsetModulationField(pixel_rows(field.offsets, positions),
                                 pixel_rows(field.modulation, positions))


def _outside(a, positions):
    """Values of an (N, C, H, W) map at every position not listed."""
    n, c = a.shape[:2]
    keep = np.ones(a.size // c, dtype=bool)
    keep[positions] = False
    return a.reshape(n, c, -1).transpose(0, 2, 1).reshape(-1, c)[keep]


def test_bad_positions_are_argument_error():
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = np.zeros((1, 2, 2, 3))
    weights = ConvWeights(np.zeros((2, 2, 3, 3)), np.zeros(2))
    field = identity_field(1, 9, 2, 3)
    layer = DeformConv2dLayer(2, 2, spec, np.random.default_rng(0))
    for bad in ([6], [-1], [2, 1], [1, 1], [[0, 1]], [0.0, 1.0]):
        with pytest.raises(ArgumentError):
            mdconv_forward_optimized(x, weights, spec, field, positions=bad)
        with pytest.raises(ArgumentError):
            dense_conv_forward(x, weights, spec, positions=bad)
        with pytest.raises(ArgumentError):
            layer.forward(x, bad)
    # under a position list the field and the output are rows there
    with pytest.raises(ShapeError):
        mdconv_forward_optimized(x, weights, spec, field, positions=[5])
    assert mdconv_forward_optimized(x, weights, spec, _rows_field(field, [5]),
                                    positions=[5]).shape == (1, 2)
    assert mdconv_forward_optimized(x, weights, spec, _rows_field(field, []),
                                    positions=[]).shape == (0, 2)


@st.composite
def demanded_layers(draw):
    """A deformable layer of random geometry with a non-zero offset branch,
    an input it fits and a demand: a sorted list of none, some or all of its
    flat output positions.
    """
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    pad = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    dilation = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    spec = KernelSpec(kh, kw, stride=stride, pad=pad, dilation=dilation)
    h = draw(st.integers(max(1, (kh - 1) * dilation[0] + 1 - 2 * pad[0]), 9))
    w = draw(st.integers(max(1, (kw - 1) * dilation[1] + 1 - 2 * pad[1]), 9))
    h_out, w_out = spec.out_size(h, w)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = DeformConv2dLayer(draw(st.integers(1, 3)), draw(st.integers(1, 3)), spec, rng,
                              modulated=draw(st.booleans()))
    for p in (layer.bias, layer.branch_weight, layer.branch_bias):
        p.value[...] = rng.normal(0.0, 1.0, p.value.shape)
    n = draw(st.integers(1, 2))
    x = rng.normal(size=(n, layer.weight.value.shape[1], h, w))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    demand = np.flatnonzero(rng.random(n * h_out * w_out) < density)
    return layer, x, demand


def _param_grads(layer, upstream):
    """(grad_x, and each Param's gradient) of one backward from zero."""
    for p in layer.params():
        p.zero_grad()
    gx = layer.backward(upstream)
    return (gx, *(p.grad.copy() for p in layer.params()))


@settings(max_examples=60, deadline=None)
@given(demanded_layers(), st.sampled_from(("empty", "one", "partial", "all")),
       st.sampled_from((np.float32, np.float64)), st.integers(0, 2**32 - 1))
def test_demanded_forward_matches_full_map_property(case, kind, dtype, seed):
    layer, x, _ = case
    x = x.astype(dtype)
    rng = np.random.default_rng(seed)
    full = layer.forward(x)
    _, full_field = layer.recorded_state()
    size = full.shape[0] * full.shape[2] * full.shape[3]
    demand = {"empty": np.arange(0), "one": rng.integers(size, size=1),
              "partial": np.flatnonzero(rng.random(size) < 0.4), "all": np.arange(size)}[kind]
    upstream = rng.normal(size=full.shape).astype(dtype)
    masked = pixel_map(pixel_rows(upstream, demand), demand, upstream.shape)
    tol = F32_REL_TOL if dtype == np.float32 else 1e-10
    want_grads = _param_grads(layer, masked)

    got = layer.forward(x, demand)
    assert got.shape == full.shape and got.dtype == dtype
    assert _rel_err(_at(got, demand), _at(full, demand)) <= tol
    assert not _outside(got, demand).any()
    x_rec, field = layer.recorded_state()
    assert x_rec is x
    for part in ("offsets", "modulation"):
        have, want = getattr(field, part), getattr(full_field, part)
        assert have.shape == want.shape and have.dtype == dtype
        assert _rel_err(_at(have, demand), _at(want, demand)) <= tol
        assert not _outside(have, demand).any()
    # the kernel alone, on the full field's rows
    kernel = mdconv_forward_optimized(x, layer._weights(), layer.spec,
                                      _rows_field(full_field, demand), positions=demand)
    assert _rel_err(kernel, _at(full, demand)) <= tol
    # the layer reads the upstream only at its demand
    grads = _param_grads(layer, upstream)
    for g, want in zip(grads, want_grads):
        assert g.shape == want.shape
        assert _rel_err(g, want) <= tol
    # bit for bit what the kernels give on the same forward state: the
    # mdconv backward in map form (the recorded field as whole maps, the
    # upstream zero off the demand), and the offset branch's backward on the
    # demand's rows, the positions its field was computed at
    gx, gw, gb, goff, gmod = mdconv_backward_optimized(x, layer._weights(), layer.spec,
                                                       field, masked)
    bgx, gbw, gbb = offset_branch_backward(x, layer._branch_weights(), layer.spec,
                                           _rows_field(field, demand), pixel_rows(goff, demand),
                                           pixel_rows(gmod, demand), demand)
    assert grads[0].dtype == dtype
    for g, want in zip(grads, (gx + bgx, gw, gb, gbw, gbb)):
        assert np.array_equal(g, want)


@pytest.mark.parametrize("channel, match", [(0, "offsets"), (-1, "modulation")])
def test_non_finite_branch_output_at_the_demand_is_argument_error(channel, match):
    rng = np.random.default_rng(19)
    layer = DeformConv2dLayer(2, 3, KernelSpec(3, 3, pad=(1, 1)), rng)
    x = rng.normal(size=(2, 2, 5, 4)).astype(np.float32)
    layer.branch_bias.value[channel] = np.nan
    with pytest.raises(ArgumentError, match=match):
        layer.forward(x, [7])
    # an empty demand computes, and checks, no branch output
    assert not layer.forward(x, []).any()


def test_demanded_layer_builds_no_zero_filled_maps_at_mimic_shape(monkeypatch):
    import sys

    calls = []

    def counting(pixel_map):
        def wrapped(*args, **kwargs):
            calls.append(args[2])
            return pixel_map(*args, **kwargs)
        return wrapped

    for name, module in list(sys.modules.items()):
        if name.startswith("dcn2") and hasattr(module, "pixel_map"):
            monkeypatch.setattr(module, "pixel_map", counting(module.pixel_map))
    rng = np.random.default_rng(20)
    layer = DeformConv2dLayer(8, 8, KernelSpec(3, 3, pad=(1, 1)), rng)
    layer.branch_weight.value[...] = rng.normal(0.0, 0.05, layer.branch_weight.value.shape)
    x = rng.normal(size=(8, 8, 32, 32)).astype(np.float32)
    demand = np.sort(rng.choice(8 * 32 * 32, 512, replace=False))  # mimic's 6.25%
    y = layer.forward(x, demand)
    gx = layer.backward(rng.normal(size=y.shape).astype(np.float32))
    assert gx.shape == x.shape
    # the output map alone; no field, upstream or field-gradient map
    assert len(calls) <= 2 and calls[0] == y.shape


@settings(max_examples=40, deadline=None)
@given(demanded_layers())
def test_float32_forward_matches_float64_property(case):
    layer, x, demand = case
    layer.forward(x)
    _, field = layer.recorded_state()
    # one set of float32 values, computed in both precisions
    x32 = x.astype(np.float32)
    # offsets of a few pixels keep most samples inside these small inputs
    off32 = np.clip(field.offsets, -4.0, 4.0).astype(np.float32)
    mod32 = field.modulation.astype(np.float32)
    w32 = layer._weights()
    w64 = ConvWeights(w32.weight.astype(np.float64), w32.bias.astype(np.float64))
    f32 = OffsetModulationField(off32, mod32)
    f64 = OffsetModulationField(off32.astype(np.float64), mod32.astype(np.float64))
    for positions in (None, demand):
        rows = (lambda f: f) if positions is None else (lambda f: _rows_field(f, positions))
        got = mdconv_forward_optimized(x32, w32, layer.spec, rows(f32), positions=positions)
        want = mdconv_forward_optimized(x32.astype(np.float64), w64, layer.spec, rows(f64),
                                        positions=positions)
        assert got.dtype == np.float32
        assert _rel_err(got, want) <= 1e-5


@settings(max_examples=40, deadline=None)
@given(demanded_layers())
def test_float32_backward_matches_float64_property(case):
    layer, x, _ = case
    layer.forward(x)
    _, field = layer.recorded_state()
    # one set of float32 values, computed in both precisions
    x32 = x.astype(np.float32)
    off32 = np.clip(field.offsets, -4.0, 4.0).astype(np.float32)
    mod32 = field.modulation.astype(np.float32)
    w32 = layer._weights()
    w64 = ConvWeights(w32.weight.astype(np.float64), w32.bias.astype(np.float64))
    f32 = OffsetModulationField(off32, mod32)
    f64 = OffsetModulationField(off32.astype(np.float64), mod32.astype(np.float64))
    up32 = np.random.default_rng(x.size).normal(
        size=(x.shape[0], w32.weight.shape[0]) + off32.shape[-2:]).astype(np.float32)
    got = mdconv_backward_optimized(x32, w32, layer.spec, f32, up32)
    want = mdconv_backward_optimized(x32.astype(np.float64), w64, layer.spec, f64,
                                     up32.astype(np.float64))
    for g, wnt in zip(got, want):
        assert g.dtype == np.float32
        assert _rel_err(g, wnt) <= F32_REL_TOL


# ---------------------------------------------------------------------------
# live positions: the backward computes only where the upstream is non-zero
# ---------------------------------------------------------------------------

def _dead_positions(upstream: np.ndarray) -> np.ndarray:
    """(N, H_out, W_out) mask of the positions whose every channel is zero."""
    return (upstream == 0).all(axis=1)


@st.composite
def sparse_upstreams(draw):
    """A layer, input and field of random geometry (as `demanded_layers`)
    and an upstream that is live on none, some or all output positions,
    some live ones with a zero first channel.
    """
    layer, x, _ = draw(demanded_layers())
    layer.forward(x)
    _, field = layer.recorded_state()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, c_out = x.shape[0], layer.weight.value.shape[0]
    h_out, w_out = field.offsets.shape[2:]
    density = draw(st.sampled_from((0.0, 0.3, 1.0)))
    live = rng.random((n, 1, h_out, w_out)) < density
    upstream = rng.normal(size=(n, c_out, h_out, w_out)) * live
    upstream[:, 0] *= rng.random((n, h_out, w_out)) < 0.7
    return layer, x, field, upstream


@settings(max_examples=40, deadline=None)
@given(sparse_upstreams())
def test_sparse_upstream_backward_matches_reference_property(case):
    layer, x, field, upstream = case
    weights = layer._weights()
    got = mdconv_backward_optimized(x, weights, layer.spec, field, upstream)
    want = mdconv_backward(x, weights, layer.spec, field, upstream)
    for g, wnt in zip(got, want):
        assert g.dtype == np.float64
        assert _rel_err(g, wnt) <= 1e-10
    dead = _dead_positions(upstream)
    _, _, _, goff, gmod = got
    # exact zeros, not merely small ones
    assert not goff.transpose(0, 2, 3, 1)[dead].any()
    assert not gmod.transpose(0, 2, 3, 1)[dead].any()


def test_all_zero_upstream_builds_no_pattern(monkeypatch):
    import dcn2.deform_conv as dc

    calls = []
    gather = dc.bilinear_corner_gather

    def counting_gather(*args, **kwargs):
        calls.append(1)
        return gather(*args, **kwargs)

    monkeypatch.setattr(dc, "bilinear_corner_gather", counting_gather)
    rng = np.random.default_rng(15)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(2, 3, 7, 6))
    weights = ConvWeights(rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4))
    field = OffsetModulationField(rng.uniform(-2, 2, size=(2, 18, 7, 6)),
                                  rng.uniform(0, 1, size=(2, 9, 7, 6)))
    upstream = np.zeros((2, 4, 7, 6))
    got = mdconv_backward_optimized(x, weights, spec, field, upstream)
    assert calls == []
    for g, shape in zip(got, (x.shape, weights.weight.shape, (4,), (2, 18, 7, 6),
                              (2, 9, 7, 6))):
        assert g.shape == shape
        assert not g.any()
    # one live entry is enough to build the pattern, once
    upstream[1, 2, 3, 4] = 1.0
    mdconv_backward_optimized(x, weights, spec, field, upstream)
    assert len(calls) == 1


def test_offset_branch_backward_runs_at_the_fields_positions():
    rng = np.random.default_rng(18)
    spec = KernelSpec(3, 2, stride=(2, 1), pad=(1, 2), dilation=(1, 2))
    x = rng.normal(size=(2, 3, 9, 7))
    bw = ConvWeights(rng.normal(size=(3 * spec.k, 3, 3, 2)), rng.normal(size=3 * spec.k))
    field = offset_branch_forward(x, bw, spec)
    n, _, h_out, w_out = field.offsets.shape
    live = rng.random((n, 1, h_out, w_out)) < 0.2
    g_off = rng.normal(size=field.offsets.shape) * live
    g_mod = rng.normal(size=field.modulation.shape) * live
    m = field.modulation
    g_raw = np.concatenate([g_off, g_mod * m * (1 - m)], axis=1)
    # a whole map runs the whole-map im2col, however many zeros it holds
    got = offset_branch_backward(x, bw, spec, field, g_off, g_mod)
    for g, wnt in zip(got, dense_conv_backward(x, bw, spec, g_raw)):
        assert np.array_equal(g, wnt)
    # rows at a list run the list's rows, dead ones included
    demand = np.flatnonzero(rng.random(n * h_out * w_out) < 0.5)
    got = offset_branch_backward(x, bw, spec, _rows_field(field, demand),
                                 pixel_rows(g_off, demand), pixel_rows(g_mod, demand), demand)
    for g, wnt in zip(got, dense_conv_backward(x, bw, spec, pixel_rows(g_raw, demand), demand)):
        assert np.array_equal(g, wnt)
    # a NaN field gradient reaches every gradient
    g_off[...] = 0.0
    g_mod[...] = 0.0
    g_off[1, 4, 2, 3] = np.nan
    gx, gw, gb = offset_branch_backward(x, bw, spec, field, g_off, g_mod)
    assert np.isnan(gx[1]).any() and not np.isnan(gx[0]).any()
    assert np.isnan(gw[4]).all() and np.isnan(gb[4]) and not np.isnan(np.delete(gb, 4)).any()


def test_nan_upstream_propagates_at_its_position():
    rng = np.random.default_rng(16)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(2, 3, 7, 6))
    weights = ConvWeights(rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4))
    field = OffsetModulationField(rng.uniform(-2, 2, size=(2, 18, 7, 6)),
                                  rng.uniform(0, 1, size=(2, 9, 7, 6)))
    upstream = np.zeros((2, 4, 7, 6))
    upstream[0, 1, 2, 3] = np.nan
    upstream[1, 0, 5, 1] = 0.5
    gx, gw, gb, goff, gmod = mdconv_backward_optimized(x, weights, spec, field, upstream)
    assert np.isnan(goff[0, :, 2, 3]).all() and np.isnan(gmod[0, :, 2, 3]).all()
    finite = np.ones((2, 7, 6), dtype=bool)
    finite[0, 2, 3] = False
    assert np.isfinite(goff.transpose(0, 2, 3, 1)[finite]).all()
    assert np.isfinite(gmod.transpose(0, 2, 3, 1)[finite]).all()
    assert np.isfinite(goff[1, :, 5, 1]).all() and goff[1, :, 5, 1].any()
    assert np.isnan(gx[0]).any() and np.isfinite(gx[1]).all()
    assert np.isnan(gw).any() and np.isnan(gb[1])


def test_sparse_backward_threaded_matches_serial(monkeypatch, kernel_threads):
    import dcn2.deform_conv as dc
    from dcn2 import runtime

    rng = np.random.default_rng(17)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(3, 4, 20, 9))
    weights = ConvWeights(rng.normal(size=(3, 4, 3, 3)), rng.normal(size=3))
    field = OffsetModulationField(rng.uniform(-2, 2, size=(3, 18, 20, 9)),
                                  rng.uniform(0, 1, size=(3, 9, 20, 9)))
    upstream = rng.normal(size=(3, 3, 20, 9)) * (rng.random((3, 1, 20, 9)) < 0.2)
    kernel_threads(1)
    whole = mdconv_backward_optimized(x, weights, spec, field, upstream)

    chunk_counts = []
    run_chunks = runtime.run_chunks

    def counting_run_chunks(fn, chunks):
        chunk_counts.append(len(chunks))
        return run_chunks(fn, chunks)

    monkeypatch.setattr(runtime, "run_chunks", counting_run_chunks)
    # a budget of a few positions spreads the live ones over many chunks
    monkeypatch.setattr(dc, "_CHUNK_BUDGET", 500)
    serial = mdconv_backward_optimized(x, weights, spec, field, upstream)
    kernel_threads(4)
    threaded = mdconv_backward_optimized(x, weights, spec, field, upstream)
    assert chunk_counts[0] == chunk_counts[1] > 3
    for w_, a, b in zip(whole, serial, threaded):
        assert _rel_err(a, w_) <= 1e-10  # tiling changes only summation order
        assert np.array_equal(a, b)  # ordered reduction: bit identical
    # rows at a demand run the same live rows: the same bits, as rows
    demand = np.flatnonzero(rng.random(3 * 20 * 9) < 0.5)
    masked = pixel_map(pixel_rows(upstream, demand), demand, upstream.shape)
    want = mdconv_backward_optimized(x, weights, spec, field, masked)
    rows = mdconv_backward_optimized(x, weights, spec, _rows_field(field, demand),
                                     pixel_rows(upstream, demand), demand)
    kernel_threads(1)
    assert chunk_counts[-1] > 3
    for a, b in zip(rows, mdconv_backward_optimized(x, weights, spec, _rows_field(field, demand),
                                                    pixel_rows(upstream, demand), demand)):
        assert np.array_equal(a, b)
    for part, (a, b) in enumerate(zip(rows, want)):
        assert np.array_equal(a, b if part < 3 else pixel_rows(b, demand))


def test_backward_chunk_footprint():
    # a one-chunk float32 backward holds about four (positions*K, C_in)
    # arrays at once; one copy per intermediate product reads ~9x
    rng = np.random.default_rng(3)
    n, c, h, w = 1, 64, 24, 40
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    weights = ConvWeights(rng.normal(size=(c, c, 3, 3)).astype(np.float32),
                          np.zeros(c, np.float32))
    field = OffsetModulationField(rng.normal(0, 0.5, size=(n, 2 * spec.k, h, w)).astype(np.float32),
                                  rng.uniform(size=(n, spec.k, h, w)).astype(np.float32))
    upstream = rng.standard_normal((n, c, h, w)).astype(np.float32)
    mdconv_backward_optimized(x, weights, spec, field, upstream)
    tracemalloc.start()
    try:
        mdconv_backward_optimized(x, weights, spec, field, upstream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n * h * w * spec.k * c * 4


# detect_train's trunk layer: 1x64x48x80 float32, a 3x3 kernel; its
# P*K*C_in float32 im2col / sampled operand is 8.8 MB
DETECT_SHAPE = (1, 64, 48, 80)
DETECT_OPERAND = 48 * 80 * 9 * 64 * 4


def _peak_over_operand(fn) -> float:
    """tracemalloc peak of the second call of fn, over DETECT_OPERAND."""
    fn()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / DETECT_OPERAND


def _whole_grad_cols_input_grad(w: np.ndarray, spec: KernelSpec, g: np.ndarray, x_shape):
    """grad_x of a full-map dense conv from the whole (N, C*K, P) grad_cols
    array W^T G, scattered tap by tap into the padded gradient."""
    n, c, h, win = x_shape
    (sh, sw), (ph, pw), (dh, dw) = spec.stride, spec.pad, spec.dilation
    kh, kw, (h_out, w_out) = spec.kernel_h, spec.kernel_w, g.shape[2:]
    grad_cols = np.matmul(w.reshape(len(w), -1).T, g.reshape(n, len(w), -1)).reshape(
        n, c, kh, kw, h_out, w_out)
    gxp = np.zeros((n, c, h + 2 * ph, win + 2 * pw), dtype=g.dtype)
    for u, v in np.ndindex(kh, kw):
        gxp[:, :, u * dh : u * dh + sh * h_out : sh,
            v * dw : v * dw + sw * w_out : sw] += grad_cols[:, :, u, v]
    return gxp[:, :, ph : ph + h, pw : pw + win]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_full_map_dense_backward_builds_input_grad_tap_by_tap(dtype):
    rng = np.random.default_rng(21)
    spec = KernelSpec(3, 3, stride=(2, 2), pad=(1, 2), dilation=(2, 2))
    x = rng.normal(size=(8, 5, 13, 11)).astype(dtype)
    weights = ConvWeights(rng.normal(size=(7, 5, 3, 3)).astype(dtype),
                          rng.normal(size=7).astype(dtype))
    g = rng.normal(size=(8, 7, *spec.out_size(13, 11))).astype(dtype)
    gx, _, _ = dense_conv_backward(x, weights, spec, g)
    assert gx.dtype == dtype
    assert np.array_equal(gx, _whole_grad_cols_input_grad(weights.weight, spec, g, x.shape))


def test_full_map_dense_backward_footprint():
    # the offset branch's backward at detect_train: 64 -> 27 channels; one
    # im2col-sized copy (grad_w's tensordot) and no im2col-sized grad_cols
    rng = np.random.default_rng(22)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.standard_normal(DETECT_SHAPE).astype(np.float32)
    weights = ConvWeights(rng.normal(size=(27, 64, 3, 3)).astype(np.float32),
                          np.zeros(27, np.float32))
    g = rng.standard_normal((1, 27, 48, 80)).astype(np.float32)
    gx, _, _ = dense_conv_backward(x, weights, spec, g)
    assert np.array_equal(gx, _whole_grad_cols_input_grad(weights.weight, spec, g, x.shape))
    assert _peak_over_operand(lambda: dense_conv_backward(x, weights, spec, g)) <= 1.6


def test_whole_map_branch_backward_with_dead_positions_runs_full_map():
    # a few dead positions once sent the whole branch backward to the
    # im2col-rows path, peaking at 6.3x the operand
    rng = np.random.default_rng(23)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.standard_normal(DETECT_SHAPE).astype(np.float32)
    bw = ConvWeights(rng.normal(0.0, 0.01, size=(27, 64, 3, 3)).astype(np.float32),
                     np.zeros(27, np.float32))
    field = offset_branch_forward(x, bw, spec)
    dead = np.zeros((1, 1, 48, 80), dtype=bool)
    dead.reshape(-1)[[5, 1700, 3839]] = True
    g_off = rng.standard_normal(field.offsets.shape).astype(np.float32) * ~dead
    g_mod = rng.standard_normal(field.modulation.shape).astype(np.float32) * ~dead
    m = field.modulation
    g_raw = np.concatenate([g_off, g_mod * m * (1.0 - m)], axis=1)
    want = dense_conv_backward(x, bw, spec, g_raw)
    got = offset_branch_backward(x, bw, spec, field, g_off, g_mod)
    for g, wnt in zip(got, want):
        assert np.array_equal(g, wnt)
    assert _peak_over_operand(
        lambda: offset_branch_backward(x, bw, spec, field, g_off, g_mod)) <= 2


def test_full_list_mdconv_backward_footprint():
    # each chunk holds at most a 1M-element float64 S^T operand and
    # scatters into the window of pixels it reads
    rng = np.random.default_rng(24)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.standard_normal(DETECT_SHAPE).astype(np.float32)
    weights = ConvWeights(rng.normal(size=(64, 64, 3, 3)).astype(np.float32),
                          np.zeros(64, np.float32))
    every = np.arange(48 * 80)
    field = OffsetModulationField(rng.normal(0, 0.5, size=(every.size, 18)).astype(np.float32),
                                  rng.uniform(size=(every.size, 9)).astype(np.float32))
    upstream = rng.standard_normal((every.size, 64)).astype(np.float32)
    assert _peak_over_operand(lambda: mdconv_backward_optimized(
        x, weights, spec, field, upstream, every)) <= 3


@pytest.fixture(scope="module")
def mimic_train_layer():
    """The deformable trunk layer of `demo-train --mimic` at its defaults
    (8 channels, 32x32, batch 8, float32) after two training steps, its state
    recorded by a full-map main-branch forward on the last batch, and the upstream
    that layer gets from the RoI pooling of that batch.
    """
    cfg = ToyNetConfig()
    task = SyntheticTask(mode="dilate", image_size=cfg.image_size)
    mimic_cfg = MimicConfig(patch_size=(cfg.image_size, cfg.image_size))
    rng = np.random.default_rng(1)
    model = build_two_branch_model(cfg, n_classes=2, rng=rng)
    opt = SGD(model.params(), lr=cfg.learning_rate, momentum=cfg.momentum,
              weight_decay=cfg.weight_decay)
    for _ in range(2):
        images, proposals, gt_boxes, labels = task.sample_detection_batch(rng, cfg.batch_size)
        batch = MimicBatch.build(images, proposals, gt_boxes, labels, mimic_cfg, rng)
        opt.zero_grad()
        mimic_step(model, images, batch, mimic_cfg)
        opt.step()
    # the main branch's forward without a demand, so that the field is whole
    pooled = model.pool.forward(model.backbone.forward(images.astype(np.float32)), batch.rois)
    feat = model.fc.forward(pooled.reshape(len(batch.rois), -1))
    upstream = model.pool.backward(model.fc.backward(rng.normal(size=feat.shape)))
    *_, layer, relu = model.backbone.layers
    upstream = relu.backward(upstream)
    assert isinstance(layer, DeformConv2dLayer) and layer.mean_abs_offset() > 0
    assert upstream.shape == (8, 8, 32, 32) and upstream.dtype == np.float32
    return layer, upstream


def _reference_on_item(layer, b: int, upstream):
    """Reference gradients of item b alone, in float64 on the layer's
    float32 values, and the offset branch's share of them."""
    x, field = layer.recorded_state()
    x64 = x[b:b + 1].astype(np.float64)
    field64 = OffsetModulationField(field.offsets[b:b + 1].astype(np.float64),
                                    field.modulation[b:b + 1].astype(np.float64))
    w = layer._weights()
    w64 = ConvWeights(w.weight.astype(np.float64), w.bias.astype(np.float64))
    ref = mdconv_backward(x64, w64, layer.spec, field64, upstream[b:b + 1].astype(np.float64))
    bw = layer._branch_weights()
    bw64 = ConvWeights(bw.weight.astype(np.float64), bw.bias.astype(np.float64))
    branch = offset_branch_backward(x64, bw64, layer.spec, field64, ref[3], ref[4])
    return ref, branch


def test_one_hot_layer_backward_matches_reference_on_mimic_inputs(mimic_train_layer):
    layer, upstream = mimic_train_layer
    live = ~_dead_positions(upstream)
    assert 0 < live.mean() < 0.2  # what RoI pooling of 2x2 bins leaves live
    b, i, j = np.argwhere(live)[len(np.argwhere(live)) // 2]
    one_hot = np.zeros_like(upstream)
    one_hot[b, 3, i, j] = 1.0
    (ref_gx, ref_gw, ref_gb, ref_goff, _), (br_gx, br_gw, br_gb) = \
        _reference_on_item(layer, b, one_hot)

    for p in layer.params():
        p.zero_grad()
    gx = layer.backward(one_hot)
    others = np.arange(len(gx)) != b
    assert _rel_err(gx[b:b + 1], ref_gx + br_gx) <= F32_REL_TOL
    assert not gx[others].any()
    for p, want in zip(layer.params(), (ref_gw, ref_gb, br_gw, br_gb)):
        assert _rel_err(p.grad, want) <= F32_REL_TOL

    got = effective_sampling_locations(layer, one_hot)
    want = np.hypot(ref_goff[:, 0::2], ref_goff[:, 1::2])
    assert _rel_err(got[b:b + 1], want) <= F32_REL_TOL
    assert not got[others].any()
    assert np.count_nonzero(got) == np.count_nonzero(want) > 0


def test_roi_upstream_backward_matches_reference_on_mimic_inputs(mimic_train_layer):
    layer, upstream = mimic_train_layer
    x, field = layer.recorded_state()
    b = int(np.argmax((upstream != 0).sum(axis=(1, 2, 3))))
    item_field = OffsetModulationField(field.offsets[b:b + 1], field.modulation[b:b + 1])
    got = mdconv_backward_optimized(x[b:b + 1], layer._weights(), layer.spec, item_field,
                                    upstream[b:b + 1])
    ref, _ = _reference_on_item(layer, b, upstream)
    for g, wnt in zip(got, ref):
        assert g.dtype == np.float32
        assert _rel_err(g, wnt) <= F32_REL_TOL

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcn2 import support
from dcn2.deform_conv import KernelSpec
from dcn2.errors import ArgumentError, CapabilityError, ConvergenceError, UsageError
from dcn2.imageio import decode_netpbm, encode_mask_pgm, encode_pgm
from dcn2.support import (
    NodeProbe,
    SaliencyMask,
    SuperpixelLabeling,
    constant_probe,
    effective_receptive_field,
    effective_sampling_locations,
    network_probe,
    saliency_region,
    slic_segment,
    window_mean_probe,
    window_probe,
)


# ---------------------------------------------------------------------------
# effective receptive field
# ---------------------------------------------------------------------------

def _conv_tap_probe(kernel: np.ndarray, center: tuple[int, int]) -> NodeProbe:
    """Scalar node: one kernel applied to channel 0 at a fixed location."""
    kh, kw = kernel.shape
    cy, cx = center

    def taps(img):
        h, w = img.shape[1:]
        for u in range(kh):
            for v in range(kw):
                iy, ix = cy + u - kh // 2, cx + v - kw // 2
                if 0 <= iy < h and 0 <= ix < w:
                    yield u, v, iy, ix

    def fn(img):
        return sum(kernel[u, v] * img[0, iy, ix] for u, v, iy, ix in taps(img))

    def grad_fn(img):
        g = np.zeros_like(img)
        for u, v, iy, ix in taps(img):
            g[0, iy, ix] = kernel[u, v]
        return g

    return NodeProbe(fn, grad_fn, name="conv-tap")


def test_erf_conv_probe_equals_abs_kernel():
    rng = np.random.default_rng(0)
    kernel = rng.normal(size=(3, 3))
    img = rng.normal(size=(1, 9, 9))
    probe = _conv_tap_probe(kernel, center=(4, 4))
    erf = effective_receptive_field(probe, img)
    expected = np.zeros((9, 9))
    expected[3:6, 3:6] = np.abs(kernel)
    assert np.abs(erf - expected).max() < 1e-5

    # cross-check one entry by finite differences on the probe response
    h = 1e-5
    bumped = img.copy()
    bumped[0, 3, 3] += h
    fd = (probe.response(bumped)[0] - probe.response(img)[0]) / h
    assert abs(abs(fd) - erf[3, 3]) < 1e-4


def test_erf_window_mean_uniform():
    img = np.random.default_rng(1).normal(size=(1, 16, 16))
    probe = window_mean_probe(4, 6, 8, 8)
    erf = effective_receptive_field(probe, img)
    inside = erf[4:12, 6:14]
    assert np.allclose(inside, 1.0 / 64.0)
    erf[4:12, 6:14] = 0.0
    assert np.all(erf == 0.0)


def test_erf_constant_probe_zero():
    img = np.ones((1, 8, 8))
    erf = effective_receptive_field(constant_probe(), img)
    assert np.all(erf == 0.0)


def test_erf_requires_gradient():
    probe = NodeProbe(lambda img: img.sum())
    with pytest.raises(CapabilityError):
        effective_receptive_field(probe, np.ones((1, 4, 4)))


def test_network_probe_erf_nonzero_near_node():
    from dcn2.net import Conv2dLayer, ReLULayer, Sequential

    rng = np.random.default_rng(2)
    trunk = Sequential([Conv2dLayer(1, 4, KernelSpec(3, 3, pad=(1, 1)), rng), ReLULayer()])
    img = rng.normal(size=(1, 10, 10)).astype(np.float32)
    probe = network_probe(trunk, 5, 5)
    erf = effective_receptive_field(probe, img)
    assert erf.shape == (10, 10)
    outside = erf.copy()
    outside[4:7, 4:7] = 0
    assert np.all(outside == 0.0)
    assert erf[4:7, 4:7].max() > 0


def _probe_trunks():
    from dcn2.net import Conv2dLayer, DeformConv2dLayer, ReLULayer, Sequential
    from dcn2.synthetic import ToyNetConfig, ToyRegressionNet

    rng = np.random.default_rng(7)
    s3 = KernelSpec(3, 3, pad=(1, 1))

    def deform(c_in, c_out, spec, modulated=True):
        layer = DeformConv2dLayer(c_in, c_out, spec, rng, modulated=modulated)
        for p in (layer.branch_weight, layer.branch_bias):
            p.value[...] = rng.normal(0.0, 0.3, p.value.shape)
        return layer

    full = ToyRegressionNet(ToyNetConfig(channels=(4, 5), image_size=12), rng).trunk
    for layer in full.layers:
        if isinstance(layer, DeformConv2dLayer):
            layer.branch_weight.value[...] = rng.normal(0.0, 0.3, layer.branch_weight.value.shape)
    padding_conv = Conv2dLayer(3, 2, KernelSpec(1, 1, pad=(2, 2)), rng)
    padding_conv.bias.value[...] = (0.5, -0.25)
    return {
        # the analyze node: regular + mdconv, before the last ReLU
        "regular_mdconv": Sequential(full.layers[:-1]),
        # the CLI `net:y,x` node: the whole trunk, trailing ReLU included
        "full_trunk": full,
        # a later strided, dilated conv widens the window the node reads
        "mdconv_regular": Sequential([
            deform(1, 4, s3), ReLULayer(),
            Conv2dLayer(4, 3, KernelSpec(3, 2, stride=(2, 1), pad=(2, 1), dilation=(2, 2)),
                        rng)]),
        # border nodes of the later conv read only zero padding
        "mdconv_padding_conv": Sequential([deform(1, 3, s3), padding_conv]),
        "dconv": Sequential([
            deform(1, 4, KernelSpec(3, 2, stride=(2, 1), pad=(0, 2), dilation=(1, 2)),
                   modulated=False)]),
        "regular_only": Sequential([Conv2dLayer(1, 3, s3, rng), ReLULayer()]),
    }


@pytest.mark.parametrize("name", list(_probe_trunks()))
def test_network_probe_windowed_response_matches_full_forward(name):
    trunk = _probe_trunks()[name]
    img = np.random.default_rng(8).normal(size=(1, 12, 12))
    full = trunk.forward(img[None])
    h, w = full.shape[2:]
    nodes = {(y, x) for y in (0, 1, h // 2, h - 1) for x in (0, 1, w // 2, w - 1)}
    nonzero = 0
    for y, x in sorted(nodes):
        got = network_probe(trunk, y, x).response(img)
        want = trunk.forward(img[None])[0, :, y, x]
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        nonzero += bool(np.any(want != 0.0))
    assert nonzero >= len(nodes) // 2


def test_network_probe_response_records_nothing_gradient_records_its_demand():
    from dcn2.net import DeformConv2dLayer

    trunk = _probe_trunks()["full_trunk"]
    layer = next(l for l in trunk.layers if isinstance(l, DeformConv2dLayer))
    rng = np.random.default_rng(9)
    img = rng.normal(size=(1, 12, 12))
    trunk.forward(img[None])
    x_rec, field = layer.recorded_state()
    probe = network_probe(trunk, 5, 6)
    probe.response(rng.normal(size=(1, 12, 12)))
    assert layer.recorded_state()[0] is x_rec and layer.recorded_state()[1] is field
    probe.gradient(img)
    x2, field2 = layer.recorded_state()
    assert x2 is not x_rec and x2.shape == x_rec.shape
    # only a ReLU follows the mdconv layer: it computed the node alone
    assert np.argwhere(field2.modulation[0].any(axis=0)).tolist() == [[5, 6]]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_probe_trunks())), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True))
def test_network_probe_gradient_matches_full_map_backward_property(name, seed, fy, fx):
    trunk = _probe_trunks()[name]
    img = np.random.default_rng(seed).normal(size=(1, 12, 12))
    out = trunk.forward(img[None])
    y, x = int(fy * out.shape[2]), int(fx * out.shape[3])
    f = out[0, :, y, x]
    n = np.linalg.norm(f)
    upstream = np.zeros_like(out)
    if n > 0:
        upstream[0, :, y, x] = f / n
    want = trunk.backward(upstream)[0]
    got = network_probe(trunk, y, x).gradient(img)
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("node", [(-3, 2), (2, -1), (12, 2), (50, 2), (2, 12)])
def test_network_probe_node_outside_output_map_is_argument_error(node):
    # -3 would silently probe row 9 of the 12x12 map, 50 would raise a raw IndexError
    probe = network_probe(_probe_trunks()["full_trunk"], *node)
    img = np.random.default_rng(10).normal(size=(1, 12, 12))
    for call in (probe.response, probe.gradient):
        with pytest.raises(ArgumentError, match="outside"):
            call(img)


# ---------------------------------------------------------------------------
# effective sampling locations
# ---------------------------------------------------------------------------

def test_sampling_locations_match_offset_grad_norms():
    from dcn2.deform_conv import mdconv_backward_optimized
    from dcn2.net import DeformConv2dLayer

    rng = np.random.default_rng(3)
    layer = DeformConv2dLayer(2, 3, KernelSpec(3, 3, pad=(1, 1)), rng)
    layer.branch_weight.value[...] = rng.normal(size=layer.branch_weight.value.shape) * 0.1
    x = rng.normal(size=(1, 2, 7, 7)).astype(np.float32)
    layer.forward(x)
    upstream = rng.normal(size=(1, 3, 7, 7)).astype(np.float32)
    mags = effective_sampling_locations(layer, upstream)
    _, _, _, goff, _ = mdconv_backward_optimized(
        x, layer._weights(), layer.spec, layer._field, upstream)
    assert np.allclose(mags, np.hypot(goff[:, 0::2], goff[:, 1::2]))
    assert mags.shape == (1, 9, 7, 7)


def test_sampling_locations_constant_input_zero():
    from dcn2.net import DeformConv2dLayer

    rng = np.random.default_rng(4)
    layer = DeformConv2dLayer(1, 2, KernelSpec(3, 3), rng)
    x = np.full((1, 1, 8, 8), 2.0, dtype=np.float32)
    y = layer.forward(x)
    mags = effective_sampling_locations(layer, np.ones_like(y))
    assert np.abs(mags[:, :, 1:-1, 1:-1]).max() < 1e-7


def test_sampling_locations_of_deformable_pooling():
    from dcn2.deform_roipool import (
        PoolSpec,
        RoI,
        aligned_pool_forward,
        mdpool_backward,
        roi_branch_forward,
    )
    from dcn2.net import RoIPoolLayer

    rng = np.random.default_rng(5)
    spec = PoolSpec(2, 3, samples=2)
    layer = RoIPoolLayer(3, spec, rng, deformable=True, hidden=8)
    layer.out_w.value[...] = rng.normal(0.0, 0.05, layer.out_w.value.shape)
    x = rng.normal(size=(2, 3, 10, 12))
    rois = [RoI(0, 1.0, 2.0, 8.5, 7.0), RoI(1, 0.5, 0.5, 4.0, 11.0), RoI(1, 2.0, 3.0, 2.5, 3.5)]
    layer.forward(x, rois)
    upstream = rng.normal(size=(len(rois), 3, spec.bins_h, spec.bins_w))
    mags = effective_sampling_locations(layer, upstream)

    field, _ = roi_branch_forward(aligned_pool_forward(x, rois, spec), *layer._affines(), rois)
    _, goff, _ = mdpool_backward(x, rois, spec, field, upstream)
    assert mags.shape == (len(rois), spec.k)
    assert np.abs(goff).max() > 0
    assert np.allclose(mags, np.hypot(goff[:, 0::2], goff[:, 1::2]), rtol=1e-12, atol=0)

    aligned = RoIPoolLayer(3, spec, rng)
    aligned.forward(x, rois)
    with pytest.raises(UsageError):
        effective_sampling_locations(aligned, upstream)


def test_sampling_locations_requires_recorded_state():
    from dcn2.net import DeformConv2dLayer

    layer = DeformConv2dLayer(1, 1, KernelSpec(3, 3), np.random.default_rng(0))
    with pytest.raises(UsageError):
        effective_sampling_locations(layer, np.zeros((1, 1, 1, 1)))


def test_sampling_locations_after_demanded_forward_equal_full_forward():
    from dcn2.net import DeformConv2dLayer

    rng = np.random.default_rng(6)
    layer = DeformConv2dLayer(1, 2, KernelSpec(3, 3, pad=(1, 1)), rng)
    layer.branch_weight.value[...] = rng.normal(0.0, 0.3, layer.branch_weight.value.shape)
    x = rng.normal(size=(1, 1, 5, 5))
    upstream = rng.normal(size=(1, 2, 5, 5))
    layer.forward(x)
    want = effective_sampling_locations(layer, upstream)
    layer.forward(x, [12])
    got = effective_sampling_locations(layer, upstream)
    assert np.array_equal(got, want)
    assert np.count_nonzero(got.any(axis=1)) > 1  # every position, not only the demanded one


# ---------------------------------------------------------------------------
# SLIC
# ---------------------------------------------------------------------------

def test_slic_single_segment():
    img = np.random.default_rng(5).normal(size=(1, 12, 12))
    seg = slic_segment(img, 1)
    assert seg.count == 1
    assert np.all(seg.labels == 0)


def test_slic_uniform_image_quadrants():
    img = np.full((1, 16, 16), 0.5)
    seg = slic_segment(img, 4)
    assert seg.count == 4
    sizes = np.bincount(seg.labels.reshape(-1))
    assert len(sizes) == 4
    assert np.all(np.abs(sizes - 64) <= 16)


def test_slic_two_tone_boundary():
    img = np.zeros((1, 16, 16))
    img[0, :, 8:] = 1.0
    seg = slic_segment(img, 2, compactness=0.1)
    assert seg.count == 2
    left = seg.labels[:, :7]
    right = seg.labels[:, 9:]
    assert len(np.unique(left)) == 1
    assert len(np.unique(right)) == 1
    assert left[0, 0] != right[0, 0]


def test_slic_labels_contiguous_and_connected():
    from scipy import ndimage

    rng = np.random.default_rng(6)
    img = rng.normal(size=(3, 20, 20))
    seg = slic_segment(img, 9, compactness=5.0)
    labels = seg.labels
    assert labels.min() == 0 and labels.max() == seg.count - 1
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    for s in range(seg.count):
        mask = labels == s
        assert mask.any()
        _, n = ndimage.label(mask, structure=four)
        assert n == 1


def test_slic_rejects_oversubscription():
    with pytest.raises(ArgumentError):
        slic_segment(np.zeros((1, 4, 4)), 17)


def test_slic_rejects_non_finite_image():
    img = np.zeros((1, 8, 8))
    img[0, 3, 4] = np.nan
    with pytest.raises(ArgumentError):
        slic_segment(img, 4)


@pytest.mark.parametrize("case, count, digest", [
    ("task0", 156, "8beb22e927ec65a112699f1faecaab28e614f6a5e968da12b333a1561f2a15d2"),
    ("task1", 156, "fa1b54835c3b1efcfef9b4d542cb7b121d679f14ed6e02e1d1479ad3c4c16e1b"),
    ("noise3", 9, "1e0116da8a2568950f4df2d35e3746add13cab8f4dfd8e325165e15356135c14"),
    ("orphans", 30, "ab7d14c687aa3f2aaf897e72e208447b9d9ecc49ff5a37d2c916c8538107f151"),
    ("uncovered", 4, "4206f78928836ca5b48a5e637f4dcc529018a95b381da1f4cdc993264442d965"),
])
def test_slic_labels_pinned(case, count, digest):
    # labels of the per-center loop implementation, bit for bit
    import hashlib

    from dcn2.synthetic import SyntheticTask

    task = SyntheticTask(mode="dilate", image_size=48)
    args = {
        "task0": (task.sample_batch(np.random.default_rng(0), 1)[0][0], 150),
        "task1": (task.sample_batch(np.random.default_rng(1), 1)[0][0], 150),
        "noise3": (np.random.default_rng(2).normal(size=(3, 20, 24)), 9),
        # color-dominated distance: 340 orphan fragments to merge
        "orphans": (np.random.default_rng(3).normal(size=(1, 24, 20)), 30, 0.1),
        # seeds 50 px apart, windows +-2S = +-20 px: some pixels take the full pass
        "uncovered": (np.random.default_rng(4).normal(size=(1, 2, 200)), 4),
    }[case]
    seg = slic_segment(*args)
    assert seg.labels.dtype == np.int64
    assert seg.count == count
    assert hashlib.sha256(seg.labels.tobytes()).hexdigest() == digest


def _slic_loop_reference(img, target, compactness=10.0, iters=10):
    """SLIC as a loop over centers (strict `<` in center order, boolean-mask
    means) and connectivity as a loop over fragments, each rescanned for its
    neighbors: the arithmetic `slic_segment` must reproduce bit for bit.
    """
    import math

    from scipy import ndimage

    c, h, w = img.shape
    s = math.sqrt(h * w / target)
    gh = max(1, round(math.sqrt(target * h / w)))
    gw = max(1, math.ceil(target / gh))
    seed_y = (np.arange(gh) + 0.5) * h / gh - 0.5
    seed_x = (np.arange(gw) + 0.5) * w / gw - 0.5
    pos = np.array([(sy, sx) for sy in seed_y for sx in seed_x])
    iy = np.clip(np.round(pos[:, 0]).astype(int), 0, h - 1)
    ix = np.clip(np.round(pos[:, 1]).astype(int), 0, w - 1)
    col = img[:, iy, ix].T.copy()
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    ratio = compactness / s
    for _ in range(iters):
        best = np.full((h, w), np.inf)
        assign = np.full((h, w), -1)
        for k, (cy, cx) in enumerate(pos):
            r0, r1 = max(0, int(cy - 2 * s)), min(h, int(cy + 2 * s) + 1)
            c0, c1 = max(0, int(cx - 2 * s)), min(w, int(cx + 2 * s) + 1)
            d = (np.sqrt(((img[:, r0:r1, c0:c1] - col[k][:, None, None]) ** 2).sum(axis=0))
                 + ratio * np.hypot(yy[r0:r1, c0:c1] - cy, xx[r0:r1, c0:c1] - cx))
            better = d < best[r0:r1, c0:c1]
            best[r0:r1, c0:c1][better] = d[better]
            assign[r0:r1, c0:c1][better] = k
        my, mx = np.nonzero(assign < 0)
        d_all = np.full(my.size, np.inf)
        for k in range(len(pos)):
            d = (np.sqrt(((img[:, my, mx] - col[k][:, None]) ** 2).sum(axis=0))
                 + ratio * np.hypot(my - pos[k, 0], mx - pos[k, 1]))
            better = d < d_all
            d_all[better] = d[better]
            assign[my[better], mx[better]] = k
        for k in range(len(pos)):
            mask = assign == k
            if mask.any():
                pos[k] = (yy[mask].mean(), xx[mask].mean())
                col[k] = img[:, mask].mean(axis=1)

    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    comp = np.full((h, w), -1)
    orphans = []
    for k in range(len(pos)):
        lab, n = ndimage.label(assign == k, structure=four)
        sizes = np.bincount(lab.ravel(), minlength=n + 1)[1:]
        for rank, ci in enumerate(np.argsort(-sizes, kind="stable")):
            comp[lab == ci + 1] = comp.max() + 1
            if rank:
                orphans.append(comp.max())
    sizes = np.bincount(comp.ravel())
    for frag in orphans:
        mask = comp == frag
        grown = np.zeros_like(mask)
        grown[1:] |= mask[:-1]
        grown[:-1] |= mask[1:]
        grown[:, 1:] |= mask[:, :-1]
        grown[:, :-1] |= mask[:, 1:]
        near = set(comp[grown & ~mask].tolist())
        pool = [v for v in near if v not in orphans] or near
        if pool:
            target = max(pool, key=lambda v: (sizes[v], -v))
            comp[mask] = target
            sizes[target] += sizes[frag]
    return np.unique(comp, return_inverse=True)[1].reshape(h, w)


@pytest.mark.parametrize("case, moves", [("task0", 1), ("orphans", 10)])
def test_slic_stops_when_an_assignment_repeats(monkeypatch, case, moves):
    # task0's second pass repeats its first; the orphans noise never settles
    # and keeps moving its centers up to the 10-pass cap
    import dcn2.support as support
    from dcn2.synthetic import SyntheticTask

    calls = []
    move = support._move_centers
    monkeypatch.setattr(support, "_move_centers", lambda *a: calls.append(1) or move(*a))
    if case == "task0":
        task = SyntheticTask(mode="dilate", image_size=48)
        args = (task.sample_batch(np.random.default_rng(0), 1)[0][0], 150)
    else:
        args = (np.random.default_rng(3).normal(size=(1, 24, 20)), 30, 0.1)
    slic_segment(*args)
    assert len(calls) == moves


@st.composite
def _slic_cases(draw):
    c, h, w = draw(st.integers(1, 3)), draw(st.integers(2, 16)), draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = rng.normal(size=(c, h, w))
    levels = draw(st.sampled_from([None, 2, 4]))
    if levels:  # few colors: tied distances
        img = np.round(img * levels / 4)
    target = draw(st.integers(1, h * w))
    compactness = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0, 40.0]))
    return img, target, compactness


@settings(max_examples=25, deadline=None)
@given(_slic_cases())
def test_slic_matches_loop_reference_property(case):
    # the reference runs all 10 passes: stopping early changes no label
    img, target, compactness = case
    seg = slic_segment(img, target, compactness)
    assert np.array_equal(seg.labels, _slic_loop_reference(img, target, compactness))


@pytest.mark.parametrize("compactness", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
def test_slic_rejects_bad_compactness(compactness):
    # NaN and inf once failed in numpy's reduceat; a negative value rewarded
    # spatial distance
    with pytest.raises(ArgumentError, match="compactness"):
        slic_segment(np.zeros((1, 8, 8)), 4, compactness)


@pytest.mark.parametrize("candidates", [None, 300], ids=["one_block", "blocks_of_300"])
def test_slic_matches_loop_reference(monkeypatch, candidates):
    # large images score their window candidates a block of centers at a
    # time; forced small blocks must merge as one pass does
    import dcn2.support as support

    if candidates:
        monkeypatch.setattr(support, "_SLIC_CANDIDATES", candidates)
    rng = np.random.default_rng(14)
    cases = [
        (rng.normal(size=(3, 20, 24)), 12, 10.0),
        (rng.normal(size=(1, 24, 20)), 30, 0.1),  # hundreds of orphans
        (np.round(rng.uniform(size=(1, 16, 16)) * 3), 20, 1.0),  # tied distances
        (rng.normal(size=(5, 12, 14)), 9, 1.0),
        (rng.normal(size=(1, 2, 200)), 4, 10.0),  # pixels no window reaches
        (np.full((1, 15, 15), 0.5), 4, 10.0),  # row and column 7 tie two centers
    ]
    for img, target, compactness in cases:
        seg = slic_segment(img, target, compactness)
        assert np.array_equal(seg.labels, _slic_loop_reference(img, target, compactness))


# ---------------------------------------------------------------------------
# saliency region
# ---------------------------------------------------------------------------

def test_saliency_window_probe_focuses_on_window():
    rng = np.random.default_rng(7)
    img = rng.uniform(0.1, 1.0, size=(1, 32, 32))
    y0, x0 = 12, 16
    probe = window_probe(y0, x0, 8, 8)
    mask = saliency_region(probe, img, epsilon=0.1, center=(y0 + 3.5, x0 + 3.5),
                           target_segments=40)
    assert mask.achieved_error < 0.1
    seg = slic_segment(img, 40)
    window = np.zeros((32, 32), dtype=bool)
    window[y0:y0 + 8, x0:x0 + 8] = True
    window_cover = set(np.unique(seg.labels[window]))
    kept_segments = set(np.unique(seg.labels[mask.mask.astype(bool)]))
    # no kept pixel farther than one superpixel from the window
    for s in kept_segments:
        if s in window_cover:
            continue
        cells = seg.labels == s
        grown = np.zeros_like(cells)
        grown[1:, :] |= cells[:-1, :]
        grown[:-1, :] |= cells[1:, :]
        grown[:, 1:] |= cells[:, :-1]
        grown[:, :-1] |= cells[:, 1:]
        neighbors = set(np.unique(seg.labels[grown & ~cells]))
        assert neighbors & window_cover, f"segment {s} is not adjacent to the window cover"


def test_saliency_step2_sizes_non_increasing():
    rng = np.random.default_rng(8)
    img = rng.uniform(0.1, 1.0, size=(1, 24, 24))
    probe = window_probe(8, 8, 6, 6)
    mask = saliency_region(probe, img, epsilon=0.1, center=(11, 11), target_segments=30)
    sizes = mask.step2_sizes
    assert len(sizes) >= 1
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert all(a > b for a, b in zip(sizes, sizes[1:]))  # removals strictly shrink


def test_saliency_mask_is_union_of_superpixels_in_rect():
    rng = np.random.default_rng(9)
    img = rng.uniform(0.1, 1.0, size=(1, 24, 24))
    probe = window_probe(6, 6, 6, 6)
    mask = saliency_region(probe, img, epsilon=0.1, center=(9, 9), target_segments=30)
    x, y, w, h = mask.rect
    rect = np.zeros((24, 24), dtype=bool)
    rect[y:y + h, x:x + w] = True
    seg = slic_segment(img, 30)
    kept = mask.mask.astype(bool)
    assert not np.any(kept & ~rect)
    for s in np.unique(seg.labels[kept]):
        cells = (seg.labels == s) & rect
        assert np.all(kept[cells]), "partial superpixel inside the rectangle"


def test_saliency_vacuous_bound_empties_mask():
    rng = np.random.default_rng(10)
    img = rng.uniform(0.1, 1.0, size=(1, 16, 16))
    probe = window_probe(4, 4, 4, 4)
    mask = saliency_region(probe, img, epsilon=1.5, center=(5.5, 5.5), target_segments=16)
    assert mask.achieved_error < 1.5
    assert mask.mask.sum() == 0


def test_saliency_units_are_the_segments_touching_the_rectangle(monkeypatch):
    """Step 2 tries exactly the superpixels that share a pixel with the
    rectangle: one that touches it in a single pixel is a unit, one beside it
    is not.
    """
    img = np.random.default_rng(11).uniform(0.1, 1.0, size=(1, 8, 8))
    seen = []

    def fn(image):
        seen.append((image[0] != 0).tolist())
        return image[:, 2:6, 2:6].reshape(-1)

    # step 1 stops at the window's own 4x4 square, rows and columns 2 .. 5
    rect = np.zeros((8, 8), dtype=bool)
    rect[2:6, 2:6] = True
    corner = np.zeros((8, 8), dtype=bool)
    corner[2, 2] = True
    labels = np.zeros((8, 8), dtype=np.int64)
    labels[rect] = 1
    labels[1:3, 2] = 2  # touches the rectangle in pixel (2, 2) only
    labels[1, 3:6] = 3  # beside the rectangle, outside it
    monkeypatch.setattr(support, "slic_segment", lambda image, n: SuperpixelLabeling(labels, 4))

    mask = saliency_region(NodeProbe(fn, name="recording window"), img, epsilon=1e-6)
    assert mask.rect == (2, 2, 4, 4)
    # no removal keeps the window, so one round removes each unit once:
    # unit 1 leaves the corner, unit 2 the rest of the rectangle
    step2 = seen[seen.index(rect.tolist()) + 1:]
    assert step2 == [corner.tolist(), (rect & ~corner).tolist()]
    assert mask.segments_kept == 2


@pytest.mark.parametrize("epsilon", [float("nan"), 0.0, -0.5, float("inf")])
def test_saliency_non_positive_epsilon_is_argument_error(epsilon):
    img = np.random.default_rng(10).uniform(0.1, 1.0, size=(1, 8, 8))
    with pytest.raises(ArgumentError):
        saliency_region(window_probe(2, 2, 3, 3), img, epsilon=epsilon, target_segments=4)


@pytest.mark.parametrize("target", [2.5, float("nan"), float("inf")])
def test_non_integer_target_segments_is_argument_error(target):
    img = np.random.default_rng(10).uniform(0.1, 1.0, size=(1, 8, 8))
    calls = []
    probe = NodeProbe(lambda image: calls.append(1) or image[:, 2:5, 2:5].reshape(-1))
    with pytest.raises(ArgumentError, match="target_segments"):
        slic_segment(img, target)
    with pytest.raises(ArgumentError, match="target_segments"):
        saliency_region(probe, img, target_segments=target)
    assert calls == []  # rejected before the probe runs


@pytest.mark.parametrize("center", [(float("nan"), 3.0), (3.0, float("inf")), (-0.5, 3.0),
                                    (3.0, 7.5), (1e9, 1e9)])
def test_saliency_center_outside_image_is_argument_error(center):
    img = np.random.default_rng(10).uniform(0.1, 1.0, size=(1, 8, 8))
    with pytest.raises(ArgumentError):
        saliency_region(window_probe(2, 2, 3, 3), img, center=center, target_segments=4)
    # the edges are inside
    saliency_region(window_probe(2, 2, 3, 3), img, center=(0.0, 7.0), target_segments=4)


def test_saliency_nondeterministic_probe_raises():
    state = {"n": 0}

    def noisy(img):
        state["n"] += 1
        return np.array([float(state["n"])])

    with pytest.raises(ConvergenceError):
        saliency_region(NodeProbe(noisy), np.ones((1, 8, 8)), epsilon=1e-6)


def test_saliency_zero_response_reproduced_exactly():
    # the window is 0, so every mask reproduces the zero response exactly
    img = np.random.default_rng(13).uniform(0.1, 1.0, size=(1, 16, 16))
    img[:, 8:12, 8:12] = 0.0
    mask = saliency_region(window_probe(8, 8, 4, 4), img)
    assert mask.achieved_error == 0.0
    assert mask.mask.sum() == 0


def test_saliency_mask_invariant_enforced():
    with pytest.raises(ConvergenceError):
        SaliencyMask(np.zeros((4, 4), dtype=np.uint8), achieved_error=0.5, epsilon=0.1)


def test_saliency_report_json_fields():
    import json

    rng = np.random.default_rng(11)
    img = rng.uniform(0.1, 1.0, size=(1, 16, 16))
    probe = window_probe(4, 4, 6, 6)
    mask = saliency_region(probe, img, epsilon=0.1, center=(7, 7), target_segments=16)
    rep = json.loads(mask.report_json())
    assert set(rep) == {"epsilon", "achieved_error", "rect", "segments_kept", "probe_calls"}
    assert rep["probe_calls"] >= 2


def test_scalar_probe_uses_relative_difference():
    img = np.full((1, 12, 12), 2.0)
    probe = window_mean_probe(4, 4, 4, 4)
    mask = saliency_region(probe, img, epsilon=0.1, center=(5.5, 5.5), target_segments=12)
    assert mask.achieved_error < 0.1


# ---------------------------------------------------------------------------
# PGM round trips
# ---------------------------------------------------------------------------

def test_pgm_round_trip():
    rng = np.random.default_rng(12)
    plane = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
    back = decode_netpbm(encode_pgm(plane))
    assert back.shape == (1, 5, 7)
    assert np.allclose(back[0] * 255, plane)


def test_mask_pgm_binary_payload():
    mask = np.zeros((3, 3), dtype=np.uint8)
    mask[1, 1] = 1
    data = encode_mask_pgm(mask)
    assert data.startswith(b"P5\n3 3\n255\n")
    vals = set(data[len(b"P5\n3 3\n255\n"):])
    assert vals <= {0, 255}


def test_pgm_comment_and_ppm():
    raw = b"P6\n# comment line\n2 1\n255\n" + bytes([10, 20, 30, 40, 50, 60])
    img = decode_netpbm(raw)
    assert img.shape == (3, 1, 2)
    assert img[0, 0, 0] == pytest.approx(10 / 255)

import numpy as np
import pytest

from dcn2.checks import run_gradcheck
from dcn2.deform_roipool import (
    Affine,
    BinField,
    PoolSpec,
    RoI,
    aligned_pool_backward,
    aligned_pool_forward,
    make_roi_branch,
    mdpool_backward,
    mdpool_forward,
    roi_branch_backward,
    roi_branch_forward,
)
from dcn2.errors import ArgumentError, ShapeError
from dcn2.net import RoIPoolLayer
from dcn2.oracle import aligned_roipool_oracle
from dcn2.sampling import bilinear_backward, bilinear_sample


def test_constant_plane_identity_field():
    x = np.full((1, 3, 8, 8), 4.25)
    spec = PoolSpec(2, 3, samples=2)
    rois = [RoI(0, 1.0, 1.0, 6.5, 6.0)]
    out = mdpool_forward(x, rois, spec, BinField.identity(1, spec.k))
    assert np.allclose(out, 4.25, atol=1e-12)


def test_zero_modulation_zeroes_bin():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 2, 8, 8))
    spec = PoolSpec(2, 2)
    mods = np.array([0.0, 1.0, 1.0, 0.3])
    field = BinField(np.zeros((1, 8)), mods[None])
    out = mdpool_forward(x, [RoI(0, 1, 1, 6, 6)], spec, field)
    assert np.all(out[0, :, 0, 0] == 0.0)
    assert np.abs(out[0, :, 0, 1]).max() > 0


def test_whole_map_roi_single_bin_grid_positions():
    plane = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = plane.reshape(1, 1, 2, 2)
    spec = PoolSpec(1, 1, samples=2)
    out = mdpool_forward(x, [RoI(0, 0.0, 0.0, 1.0, 1.0)], spec, BinField.identity(1, 1))
    # independent enumeration of the stated grid placement
    expected = np.mean([
        bilinear_sample(plane, (0.25, 0.25)),
        bilinear_sample(plane, (0.25, 0.75)),
        bilinear_sample(plane, (0.75, 0.25)),
        bilinear_sample(plane, (0.75, 0.75)),
    ])
    assert out[0, 0, 0, 0] == pytest.approx(expected)
    assert out[0, 0, 0, 0] == pytest.approx(2.5)


def test_matches_aligned_oracle_identity_field():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 9, 10))
    spec = PoolSpec(3, 2, samples=3)
    rois = [
        RoI(0, 0.7, 1.1, 8.2, 7.9),
        RoI(1, 2.0, 0.0, 9.0, 8.0),
        RoI(0, 4.0, 4.0, 4.0, 4.0),  # degenerate point RoI is valid
    ]
    got = aligned_pool_forward(x, rois, spec)
    want = aligned_roipool_oracle(x, rois, 3, 2, 3)
    assert np.abs(got - want).max() < 1e-5


def test_translation_invariance_away_from_borders():
    rng = np.random.default_rng(2)
    content = rng.normal(size=(3, 5, 5))
    x = np.zeros((1, 3, 16, 16))
    x[0, :, 3:8, 3:8] = content
    x2 = np.zeros((1, 3, 16, 16))
    x2[0, :, 6:11, 7:12] = content  # shifted by (3, 4)
    spec = PoolSpec(2, 2)
    field = BinField(rng.uniform(-0.5, 0.5, (1, 8)), rng.uniform(0.2, 1.0, (1, 4)))
    a = mdpool_forward(x, [RoI(0, 2.3, 2.6, 8.9, 8.1)], spec, field)
    b = mdpool_forward(x2, [RoI(0, 6.3, 5.6, 12.9, 11.1)], spec, field)
    assert np.abs(a - b).max() < 1e-10


def test_modulation_monotonicity_nonnegative_maps():
    rng = np.random.default_rng(3)
    x = np.abs(rng.normal(size=(1, 2, 8, 8)))
    spec = PoolSpec(2, 2)
    roi = RoI(0, 1.2, 1.4, 6.3, 6.1)
    offs = rng.uniform(-1, 1, 8)
    for _ in range(20):
        m1 = rng.uniform(0, 1, 4)
        m2 = m1.copy()
        bump = int(rng.integers(0, 4))
        m2[bump] = min(1.0, m1[bump] + rng.uniform(0, 1 - m1[bump] + 1e-12))
        o1 = mdpool_forward(x, [roi], spec, BinField(offs[None], m1[None]))
        o2 = mdpool_forward(x, [roi], spec, BinField(offs[None], m2[None]))
        by, bx = divmod(bump, 2)
        assert np.all(o2[0, :, by, bx] >= o1[0, :, by, bx] - 1e-12)


def test_batch_index_validated():
    x = np.zeros((1, 1, 4, 4))
    with pytest.raises(ArgumentError):
        mdpool_forward(x, [RoI(1, 0, 0, 2, 2)], PoolSpec(1, 1), BinField.identity(1, 1))


def test_degenerate_roi_collapses_to_point():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 1, 6, 6))
    out = mdpool_forward(x, [RoI(0, 2.5, 3.5, 2.5, 3.5)], PoolSpec(2, 2),
                         BinField.identity(1, 4))
    point = bilinear_sample(x[0, 0], (3.5, 2.5))
    assert np.allclose(out, point)


def test_gradcheck_mdpool_blocks():
    reports = run_gradcheck("mdpool", seeds=5)
    for rep in reports:
        assert {b.name for b in rep.blocks} == {"x", "offsets", "modulation"}
        assert rep.passed, rep.to_json()


def _mdpool_loop_reference(x, rois, spec, field, upstream):
    """Float64 mdpool output and gradients, one bilinear sample at a time."""
    from dcn2.deform_roipool import _grid_positions

    c = x.shape[1]
    out = np.zeros((len(rois), c, spec.k))
    gx = np.zeros(x.shape)
    goff = np.zeros((len(rois), 2 * spec.k))
    gmod = np.zeros((len(rois), spec.k))
    g = upstream.reshape(len(rois), c, spec.k)
    for r, roi in enumerate(rois):
        py, px = (pos[0] for pos in _grid_positions([roi], spec))
        offs = field.offsets[r]
        for k in range(spec.k):
            m = field.modulation[r, k]
            for j in range(spec.n_k):
                pt = (py[k, j] + offs[2 * k], px[k, j] + offs[2 * k + 1])
                for ch in range(c):
                    plane = x[roi.batch_index, ch]
                    v = bilinear_sample(plane, pt)
                    out[r, ch, k] += v * m / spec.n_k
                    gmod[r, k] += g[r, ch, k] * v / spec.n_k
                    gp, (dy, dx) = bilinear_backward(plane, pt, g[r, ch, k] * m / spec.n_k)
                    for (iy, ix), val in gp.items():
                        gx[roi.batch_index, ch, iy, ix] += val
                    goff[r, 2 * k] += dy
                    goff[r, 2 * k + 1] += dx
    return out.reshape(upstream.shape), gx, goff, gmod


def test_float32_mdpool_matches_float64_loop_reference():
    # same tolerance rule as the float32 mdconv test
    f32_rel_tol = 1e-4
    rng = np.random.default_rng(9)
    x32 = rng.normal(size=(2, 3, 6, 7)).astype(np.float32)
    spec = PoolSpec(2, 2, samples=2)
    # RoI 0's samples sit at half-integers; shifted by (0.5, 1.5) every one
    # lands exactly on the lattice, reaching the last row (5) and column (6)
    rois = [RoI(0, 1, 1, 5, 5), RoI(1, 0.3, 0.7, 6.2, 4.9), RoI(0, 2, 0, 2, 5)]
    draws = [(np.tile([0.5, 1.5], spec.k), rng.uniform(0.1, 1.0, spec.k))]
    draws += [(rng.uniform(-1.5, 1.5, 2 * spec.k), rng.uniform(0.1, 1.0, spec.k))
              for _ in rois[1:]]
    field = BinField(np.stack([o for o, _ in draws]), np.stack([m for _, m in draws]))
    upstream = rng.normal(size=(len(rois), 3, 2, 2)).astype(np.float32)
    want = _mdpool_loop_reference(x32.astype(np.float64), rois, spec, field,
                                  upstream.astype(np.float64))
    got = (mdpool_forward(x32, rois, spec, field),) + \
        mdpool_backward(x32, rois, spec, field, upstream)
    assert got[0].dtype == np.float32 and got[1].dtype == np.float32
    for a, b in zip(want, got):
        assert np.abs(a - b).max() <= f32_rel_tol * max(1.0, np.abs(a).max())


def test_backward_zero_modulation_kills_grad_x():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 2, 8, 8))
    spec = PoolSpec(1, 1)
    field = BinField(np.array([[0.3, -0.4]]), np.array([[0.0]]))
    upstream = rng.normal(size=(1, 2, 1, 1))
    gx, goff, gmod = mdpool_backward(x, [RoI(0, 1, 1, 6, 6)], spec, field, upstream)
    assert np.all(gx == 0)
    assert np.all(goff == 0)
    assert np.abs(gmod).max() > 0


def test_backward_constant_input_zero_offset_grad():
    x = np.full((1, 2, 8, 8), 2.0)
    spec = PoolSpec(2, 2)
    rng = np.random.default_rng(6)
    field = BinField(rng.uniform(-0.5, 0.5, (1, 8)), rng.uniform(0.2, 0.9, (1, 4)))
    upstream = rng.normal(size=(1, 2, 2, 2))
    _, goff, _ = mdpool_backward(x, [RoI(0, 2, 2, 5.5, 5.5)], spec, field, upstream)
    assert np.abs(goff).max() < 1e-9


def test_roi_branch_zero_init_gives_identity_field():
    rng = np.random.default_rng(7)
    fc1, fc2, out_w = make_roi_branch(in_dim=12, k=4, hidden=16, rng=rng)
    pooled = rng.normal(size=(1, 3, 2, 2))
    field, _ = roi_branch_forward(pooled, fc1, fc2, out_w, [RoI(0, 0, 0, 10, 10)])
    assert np.all(field.offsets == 0.0)
    assert np.all(field.modulation == 0.5)


def test_roi_branch_normalized_offsets_scale_with_roi():
    # force raw outputs: zero hidden path, bias drives the output layer
    fc1 = Affine(np.zeros((4, 8)), np.zeros(4))
    fc2 = Affine(np.zeros((4, 4)), np.zeros(4))
    raw = np.zeros(3)
    raw_bias = np.array([0.5, 0.5, 0.0])
    out_w = Affine(np.zeros((3, 4)), raw_bias)
    roi = RoI(0, 5.0, 5.0, 25.0, 15.0)  # height 10, width 20
    field, _ = roi_branch_forward(np.zeros((1, 2, 2, 2)), fc1, fc2, out_w, [roi])
    assert field.offsets[0, 0] == pytest.approx(5.0)   # dy = 0.5 * height
    assert field.offsets[0, 1] == pytest.approx(10.0)  # dx = 0.5 * width
    assert field.modulation[0, 0] == pytest.approx(0.5)


def test_roi_branch_default_hidden_width():
    fc1, fc2, out_w = make_roi_branch(in_dim=8, k=1)
    assert fc1.out_dim == 1024
    assert fc2.out_dim == 1024
    assert out_w.weight.shape == (3, 1024)
    assert np.all(out_w.weight == 0.0)


def test_roi_branch_gradcheck():
    reports = run_gradcheck("roi_branch", seeds=5)
    for rep in reports:
        assert rep.passed, rep.to_json()
    names = {b.name for b in reports[0].blocks}
    assert names == {"pooled", "fc1_weight", "fc1_bias", "fc2_weight", "fc2_bias",
                     "out_weight", "out_bias"}


def test_roi_branch_batch_gradcheck():
    reports = run_gradcheck("roi_branch_batch", seeds=5)
    for rep in reports:
        assert rep.passed, rep.to_json()
    assert {b.name for b in reports[0].blocks} == {
        "pooled", "fc1_weight", "fc1_bias", "fc2_weight", "fc2_bias", "out_weight", "out_bias"}


def test_roi_pool_layer_gradcheck():
    # the whole deformable layer: the branch's pooled-feature gradient goes
    # back through aligned pooling and adds to the mdpool input gradient
    reports = run_gradcheck("roi_pool_layer", seeds=5)
    assert [b.name for b in reports[0].blocks] == [
        "x", "fc1_w", "fc1_b", "fc2_w", "fc2_b", "out_w", "out_b"]
    for rep in reports:
        assert rep.passed, rep.to_json()


def _rel(got, want) -> float:
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(np.asarray(got, dtype=np.float64) - want).max() / np.abs(want).max())


def test_deformable_pool_layer_matches_per_roi_branch_loop():
    # the layer runs the branch once over all RoIs; the reference runs it on
    # one RoI at a time and sums the parameter gradients RoI by RoI
    rng = np.random.default_rng(12)
    spec = PoolSpec(2, 3, samples=2)
    layer = RoIPoolLayer(3, spec, rng, deformable=True, hidden=16)
    for p in (layer.out_w, layer.out_b):
        p.value[...] = rng.normal(0.0, 0.05, p.value.shape)
    x = rng.normal(size=(2, 3, 12, 14))
    rois = [RoI(0, 1.0, 2.0, 9.5, 8.0), RoI(1, 0.5, 0.5, 4.0, 11.0),
            RoI(1, 3.25, 1.75, 12.5, 6.0), RoI(0, 2.0, 2.0, 2.5, 3.0)]
    gy = rng.normal(size=(len(rois), 3, spec.bins_h, spec.bins_w))
    out = layer.forward(x, rois)
    gx = layer.backward(gy)
    _, _, field, _ = layer.recorded_state()

    fc1, fc2, out_w = layer._affines()
    plain = aligned_pool_forward(x, rois, spec)
    ref = [roi_branch_forward(plain[r:r + 1], fc1, fc2, out_w, [roi])
           for r, roi in enumerate(rois)]
    ref_field = BinField(np.concatenate([f.offsets for f, _ in ref]),
                         np.concatenate([f.modulation for f, _ in ref]))
    ref_gx, goff, gmod = mdpool_backward(x, rois, spec, ref_field, gy)
    grad_plain = np.zeros(plain.shape)
    ref_grads = [np.zeros(p.value.shape) for p in layer.params()]
    for r, (_, cache) in enumerate(ref):
        gp, *pairs = roi_branch_backward(fc1, fc2, out_w, cache, goff[r:r + 1], gmod[r:r + 1])
        grad_plain[r] = gp[0]
        for acc, g in zip(ref_grads, [g for pair in pairs for g in pair]):
            acc += g
    ref_gx += aligned_pool_backward(x, rois, spec, grad_plain)

    for r in range(len(rois)):  # offsets scale with the RoI: compare each RoI on its own
        assert _rel(field.offsets[r], ref_field.offsets[r]) <= 1e-12
        assert _rel(field.modulation[r], ref_field.modulation[r]) <= 1e-12
    assert _rel(out, mdpool_forward(x, rois, spec, ref_field)) <= 1e-12
    assert _rel(gx, ref_gx) <= 1e-12
    for p, want in zip(layer.params(), ref_grads):
        assert _rel(p.grad, want) <= 1e-12, p.name


def test_pool_layer_backward_takes_head_rows():
    rng = np.random.default_rng(15)
    spec = PoolSpec(2, 3)
    x = rng.normal(size=(1, 4, 8, 9))
    rois = [RoI(0, 1.0, 1.5, 6.0, 7.0), RoI(0, 0.5, 0.0, 3.0, 4.5)]
    gy = rng.normal(size=(len(rois), 4, spec.bins_h, spec.bins_w))
    for deformable in (False, True):
        layer = RoIPoolLayer(4, spec, np.random.default_rng(16), deformable=deformable,
                             hidden=8)
        layer.forward(x, rois)
        want = layer.backward(gy)
        assert np.array_equal(layer.backward(gy.reshape(len(rois), -1)), want)
        with pytest.raises(ShapeError):  # same size, wrong layout
            layer.backward(gy.transpose(0, 2, 3, 1))
        with pytest.raises(ShapeError):  # rows of the wrong width
            layer.backward(gy.reshape(len(rois), -1)[:, 1:])


def test_aligned_pool_backward_is_mdpool_grad_x_with_identity_fields():
    # bit for bit: the same pattern, S^T and upstream / n_k
    rng = np.random.default_rng(13)
    spec = PoolSpec(3, 2, samples=3)
    rois = [RoI(0, 1.2, 0.4, 9.7, 6.3), RoI(1, 0.0, 2.5, 5.5, 7.0)]
    for dtype in (np.float32, np.float64):
        x = rng.normal(size=(2, 4, 9, 11)).astype(dtype)
        gy = rng.normal(size=(2, 4, 3, 2)).astype(dtype)
        want, _, _ = mdpool_backward(x, rois, spec, BinField.identity(len(rois), spec.k), gy)
        got = aligned_pool_backward(x, rois, spec, gy)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_roi_branch_backward_shapes():
    rng = np.random.default_rng(8)
    fc1, fc2, out_w = make_roi_branch(in_dim=12, k=4, hidden=16, rng=rng)
    out_w = Affine(rng.normal(size=out_w.weight.shape) * 0.1, rng.normal(size=12) * 0.1)
    pooled = rng.normal(size=(1, 3, 2, 2))
    field, cache = roi_branch_forward(pooled, fc1, fc2, out_w, [RoI(0, 1, 1, 9, 7)])
    gp, (gw1, gb1), (gw2, gb2), (gwo, gbo) = roi_branch_backward(
        fc1, fc2, out_w, cache, np.ones((1, 8)), np.ones((1, 4)))
    assert gp.shape == pooled.shape
    assert gw1.shape == fc1.weight.shape and gb1.shape == fc1.bias.shape
    assert gw2.shape == fc2.weight.shape and gb2.shape == fc2.bias.shape
    assert gwo.shape == out_w.weight.shape and gbo.shape == out_w.bias.shape
    with pytest.raises(ShapeError):  # a single RoI's gradients are a batch of one
        roi_branch_backward(fc1, fc2, out_w, cache, np.ones(8), np.ones(4))


def test_roi_invariants():
    with pytest.raises(ArgumentError):
        RoI(0, 5.0, 0.0, 4.0, 1.0)  # x2 < x1
    for bad in (np.nan, np.inf):
        with pytest.raises(ArgumentError):
            RoI(0, 0, bad, 3, 3)


def test_bin_field_modulation_range_enforced():
    for bad in (1.5, -0.5, np.nan):
        with pytest.raises(ArgumentError):
            BinField(np.zeros((1, 2)), np.array([[bad]]))


def test_bin_field_is_one_record_of_r_rows():
    for offsets, modulation in ((np.zeros(2), np.ones(1)), (np.zeros((2, 4)), np.ones((2, 3))),
                                (np.zeros((2, 2)), np.ones((1, 1)))):
        with pytest.raises(ShapeError):
            BinField(offsets, modulation)


def test_field_count_must_match_rois():
    x = np.zeros((1, 1, 4, 4))
    with pytest.raises(ShapeError):  # no row for the RoI
        mdpool_forward(x, [RoI(0, 0, 0, 2, 2)], PoolSpec(1, 1), BinField.identity(0, 1))
    with pytest.raises(ShapeError):  # 4 bins per row against a 1x1 spec
        mdpool_backward(x, [RoI(0, 0, 0, 2, 2)], PoolSpec(1, 1), BinField.identity(1, 4),
                        np.zeros((1, 1, 1, 1)))

import copy
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcn2.checks import run_gradcheck
from dcn2.deform_roipool import PoolSpec, RoI
from dcn2.errors import ArgumentError, ConfigurationError, ShapeError
from dcn2.mimic import (
    OMEGA_SIZE,
    MimicBatch,
    MimicConfig,
    TwoBranchModel,
    box_iou,
    cosine_mimic_backward,
    cosine_mimic_loss,
    crop_resize_patch,
    mimic_step,
)
from dcn2.net import AffineLayer, Conv2dLayer, DeformConv2dLayer, ReLULayer, RoIPoolLayer
from dcn2.synthetic import SyntheticTask, ToyNetConfig, build_two_branch_model, run_mimic_training


def test_cosine_loss_identical_vectors_exact_zero():
    a = np.array([0.3, -1.2, 4.0])
    assert cosine_mimic_loss(a, a.copy()) == 0.0


def test_cosine_loss_orthogonal_and_opposite():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert cosine_mimic_loss(a, b) == pytest.approx(1.0)
    assert cosine_mimic_loss(a, -a) == pytest.approx(2.0)


def test_cosine_loss_scale_invariance():
    rng = np.random.default_rng(0)
    a = rng.normal(size=8)
    b = rng.normal(size=8)
    base = cosine_mimic_loss(a, b)
    for s in (0.001, 3.7, 1e6):
        assert cosine_mimic_loss(s * a, b) == pytest.approx(base, abs=1e-6)
        assert cosine_mimic_loss(a, s * b) == pytest.approx(base, abs=1e-6)


def test_zero_norm_guard():
    a = np.zeros(4)
    b = np.ones(4)
    assert cosine_mimic_loss(a, b) == 1.0
    ga, gb = cosine_mimic_backward(a, b)
    assert np.all(ga == 0) and np.all(gb == 0)


def test_cosine_backward_minimum_and_orthogonality():
    rng = np.random.default_rng(1)
    a = rng.normal(size=16)
    ga, gb = cosine_mimic_backward(a, a.copy())
    assert np.all(ga == 0) and np.all(gb == 0)
    for _ in range(30):
        a = rng.normal(size=16) + 0.05
        b = rng.normal(size=16) + 0.05
        ga, gb = cosine_mimic_backward(a, b)
        assert abs(ga @ a) < 1e-6 * np.linalg.norm(ga) * np.linalg.norm(a) + 1e-12
        assert abs(gb @ b) < 1e-6 * np.linalg.norm(gb) * np.linalg.norm(b) + 1e-12


def test_cosine_gradcheck():
    for rep in run_gradcheck("cosine_mimic", seeds=10):
        assert rep.passed, rep.to_json()


def test_crop_whole_image_identity():
    rng = np.random.default_rng(3)
    img = rng.normal(size=(2, 6, 7))
    out = crop_resize_patch(img[None], [RoI(0, 0.0, 0.0, 6.0, 5.0)], (6, 7))[0]
    assert np.abs(out - img).max() < 1e-5


def test_crop_constant_image():
    img = np.full((1, 8, 8), 3.0)
    out = crop_resize_patch(img[None], [RoI(0, 1.3, 2.1, 6.7, 5.9)], (5, 4))[0]
    assert out.shape == (1, 5, 4)
    assert np.allclose(out, 3.0)


def test_crop_ramp_right_half_hand_check():
    # 4x4 ramp, right half, resized to 2x2: centers computed from the stated
    # mapping, evaluated with an independent interpolation
    img = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
    roi = RoI(0, 2.0, 0.0, 3.0, 3.0)
    out = crop_resize_patch(img[None], [roi], (2, 2))[0]
    eh, ew = 4.0, 2.0
    ys = [0 + (i + 0.5) * (eh / 2) - 0.5 for i in range(2)]
    xs = [2 + (j + 0.5) * (ew / 2) - 0.5 for j in range(2)]
    from dcn2.sampling import bilinear_sample

    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            assert out[0, i, j] == pytest.approx(bilinear_sample(img[0], (y, x)))


_GOOD_ROI = RoI(0, 0.0, 0.0, 3.0, 3.0)


def test_crop_outside_image_rejected():
    img = np.zeros((1, 4, 4))
    bad = RoI(0, 10.0, 10.0, 12.0, 12.0)
    for rois in ([bad], [_GOOD_ROI, bad]):
        with pytest.raises(ArgumentError, match="zero area"):
            crop_resize_patch(img[None], rois, (2, 2))


@pytest.mark.parametrize("out_hw", [(8.5, 8), (8, 8.5), (True, 8), (8, 0)])
def test_crop_patch_size_must_be_two_integers_at_least_one(out_hw):
    # (8.5, 8) once raised numpy's bare TypeError
    with pytest.raises(ArgumentError, match="patch size"):
        crop_resize_patch(np.zeros((1, 1, 8, 8)), [_GOOD_ROI], out_hw)


@pytest.mark.parametrize("batch_index", [-1, 2])
def test_crop_batch_index_outside_stack_rejected(batch_index):
    # -1 would silently crop the last image, 2 would raise a raw IndexError
    bad = RoI(batch_index, 0.0, 0.0, 3.0, 3.0)
    for rois in ([bad], [_GOOD_ROI, bad]):
        with pytest.raises(ArgumentError, match="batch index"):
            crop_resize_patch(np.zeros((2, 1, 4, 4)), rois, (2, 2))


def test_crop_wants_image_stack():
    with pytest.raises(ShapeError):
        crop_resize_patch(np.zeros((1, 4, 4)), [_GOOD_ROI], (2, 2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_crop_of_no_rois_is_empty_stack(dtype):
    out = crop_resize_patch(np.ones((2, 3, 5, 6), dtype=dtype), [], (4, 7))
    assert out.shape == (0, 3, 4, 7) and out.dtype == dtype


@st.composite
def crop_cases(draw):
    """An image stack and RoIs in several batch items that overlap one
    another and may stick out of the image, but each meets it.
    """
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = rng.normal(size=(n, c, h, w)).astype(draw(st.sampled_from([np.float32, np.float64])))
    rois = []
    for _ in range(draw(st.integers(1, 5))):
        y1, x1 = draw(st.floats(-3.0, h - 1.0)), draw(st.floats(-3.0, w - 1.0))
        y2, x2 = (lo + draw(st.floats(0.0, 6.0)) for lo in (max(y1, 0.0), max(x1, 0.0)))
        rois.append(RoI(draw(st.integers(0, n - 1)), x1, y1, x2, y2))
    rois.append(rois[0])  # an exact overlap
    return images, rois, (draw(st.integers(1, 6)), draw(st.integers(1, 6)))


@settings(max_examples=40, deadline=None)
@given(crop_cases())
def test_crop_of_many_rois_is_each_rois_crop_property(case):
    images, rois, out_hw = case
    out = crop_resize_patch(images, rois, out_hw)
    assert out.shape == (len(rois), images.shape[1], *out_hw) and out.dtype == images.dtype
    for r, roi in enumerate(rois):
        assert np.array_equal(out[r], crop_resize_patch(images, [roi], out_hw)[0])


def test_box_iou_basic():
    a = RoI(0, 0, 0, 4, 4)
    assert box_iou(a, a) == pytest.approx(1.0)
    assert box_iou(a, RoI(0, 4, 4, 8, 8)) == 0.0
    assert box_iou(a, RoI(0, 2, 0, 6, 4)) == pytest.approx(2 * 4 / (16 + 16 - 8))


def test_batch_filters_below_threshold():
    rng = np.random.default_rng(4)
    images = rng.normal(size=(2, 1, 16, 16))
    gt = [RoI(0, 2, 2, 10, 10), RoI(1, 4, 4, 12, 12)]
    proposals = [
        RoI(0, 2.5, 2.5, 10.5, 10.5),   # high IoU
        RoI(0, 9, 9, 15, 15),           # low IoU
        RoI(1, 4, 4, 12, 12),           # exact
        RoI(1, 0, 0, 3, 3),             # no overlap
    ]
    cfg = MimicConfig(patch_size=(8, 8))
    batch = MimicBatch.build(images, proposals, gt, [1, 2], cfg, rng)
    assert len(batch) == 2
    for roi in batch.rois:
        assert max(box_iou(roi, g) for g in gt if g.batch_index == roi.batch_index) >= 0.5
    assert batch.patches.shape == (2, 1, 8, 8)
    assert list(batch.labels) == [1, 2]


def test_batch_caps_at_omega_size():
    rng = np.random.default_rng(5)
    images = rng.normal(size=(2, 1, 16, 16))
    gt = [RoI(0, 2, 2, 12, 12), RoI(1, 2, 2, 12, 12)]
    # image 1's five positives sit among image 0's forty, in proposal order
    proposals = [RoI(int(i % 9 == 4), 2 + 0.01 * i, 2, 12 + 0.01 * i, 12)
                 for i in range(45)]
    batch = MimicBatch.build(images, proposals, gt, [0, 1], MimicConfig(patch_size=(8, 8)), rng)
    image_of = [r.batch_index for r in batch.rois]
    assert (image_of.count(0), image_of.count(1)) == (OMEGA_SIZE, 5) == (32, 5)
    order = [proposals.index(r) for r in batch.rois]
    assert order == sorted(order)
    assert list(batch.labels) == image_of


def test_batch_crops_every_positive_in_one_gather(monkeypatch):
    import dcn2.mimic as mimic

    calls = []
    gather = mimic.bilinear_corner_gather
    monkeypatch.setattr(mimic, "bilinear_corner_gather",
                        lambda *args, **kwargs: calls.append(1) or gather(*args, **kwargs))
    rng = np.random.default_rng(11)
    task = SyntheticTask(mode="dilate", image_size=32)
    images, proposals, gt, labels = task.sample_detection_batch(rng, 8)
    batch = MimicBatch.build(images, proposals, gt, labels, MimicConfig(), rng)
    assert len(batch) == 8 and batch.patches.shape == (8, 1, 32, 32)
    assert len(calls) == 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_without_positives_has_no_patches(dtype):
    images = np.ones((1, 2, 16, 16), dtype=dtype)
    batch = MimicBatch.build(images, [RoI(0, 0, 0, 3, 3)], [RoI(0, 8, 8, 15, 15)], [1],
                             MimicConfig(patch_size=(5, 6)), np.random.default_rng(0))
    assert len(batch) == 0 and batch.labels.shape == (0,)
    assert batch.patches.shape == (0, 2, 5, 6) and batch.patches.dtype == dtype


@pytest.mark.parametrize("gt_labels", [[1], [1, 0, 5], [[1], [0]], 1])
def test_batch_wants_one_label_per_gt_box(gt_labels):
    # [1] once raised numpy's IndexError, [1, 0, 5] passed, [[1], [0]] raised TypeError
    images = np.zeros((1, 1, 16, 16))
    gt = [RoI(0, 2, 2, 10, 10), RoI(0, 4, 4, 12, 12)]
    with pytest.raises(ShapeError, match="gt_labels"):
        MimicBatch.build(images, gt, gt, gt_labels, MimicConfig(), np.random.default_rng(0))


def _tiny_cfg():
    return ToyNetConfig(layers=("regular",), channels=(4,), image_size=12,
                        batch_size=3, learning_rate=0.02, head_widths=(8,))


def test_step_mimic_loss_is_the_roi_order_sum_of_pair_losses():
    rng = np.random.default_rng(2)
    model = build_two_branch_model(_tiny_cfg(), 2, rng)
    images, proposals, gt, labels = SyntheticTask(image_size=16).sample_detection_batch(rng, 5)
    cfg = MimicConfig(patch_size=(12, 12))
    batch = MimicBatch.build(images, proposals, gt, labels, cfg, rng)
    assert len(batch) == 5
    f_frcnn = model.roi_features(images, batch.rois)
    f_rcnn = model.roi_features(batch.patches, [RoI(i, 0.0, 0.0, 11.0, 11.0) for i in range(5)])
    want = 0.0
    for a, b in zip(f_rcnn, f_frcnn):
        want += cosine_mimic_loss(a, b)
    assert want > 0
    assert mimic_step(model, images, batch, cfg)[1]["mimic"] == want


def test_mimic_loss_zero_at_init_with_identical_inputs():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(6)
    model = build_two_branch_model(cfg, 2, rng)
    images = rng.normal(size=(3, 1, 12, 12))
    rois = [RoI(i, 0.0, 0.0, 11.0, 11.0) for i in range(3)]
    batch = MimicBatch(rois, images.copy(), np.array([0, 1, 2]))
    _, parts = mimic_step(model, images, batch, MimicConfig(patch_size=(12, 12)))
    assert parts["mimic"] == 0.0


def test_weight_zero_trajectory_matches_baseline_bitwise():
    cfg = _tiny_cfg()
    task = SyntheticTask(mode="translate", image_size=12, seed=0)
    zero = MimicConfig(mimic_weight=0.0, rcnn_cls_weight=0.0, patch_size=(12, 12))
    m1, model1 = run_mimic_training(cfg, task, 6, seed=3, mimic_cfg=zero)
    m2, model2 = run_mimic_training(cfg, task, 6, seed=3, mimic_cfg=zero)
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
    for p1, p2 in zip(model1.params(), model2.params()):
        assert np.array_equal(p1.value, p2.value)


def test_nonzero_mimic_changes_trajectory_and_decreases_loss():
    cfg = _tiny_cfg()
    task = SyntheticTask(mode="translate", image_size=12, seed=0)
    on = MimicConfig(mimic_weight=0.1, rcnn_cls_weight=0.1, patch_size=(12, 12))
    off = MimicConfig(mimic_weight=0.0, rcnn_cls_weight=0.0, patch_size=(12, 12))
    m_on, _ = run_mimic_training(cfg, task, 25, seed=4, mimic_cfg=on)
    m_off, _ = run_mimic_training(cfg, task, 25, seed=4, mimic_cfg=off)
    assert m_on["history"][5]["total"] != m_off["history"][5]["total"]
    first = np.mean([h["task"] for h in m_on["history"][:5]])
    last = np.mean([h["task"] for h in m_on["history"][-5:]])
    assert last < first


def test_shared_param_identity_enforced():
    cfg = _tiny_cfg()
    rng = np.random.default_rng(7)
    model = build_two_branch_model(cfg, 2, rng)
    model.rcnn_head = model.frcnn_head  # violate head distinctness
    images = rng.normal(size=(2, 1, 12, 12))
    rois = [RoI(0, 0, 0, 11, 11), RoI(1, 0, 0, 11, 11)]
    batch = MimicBatch(rois, images, np.array([0, 1]))
    with pytest.raises(ConfigurationError):
        mimic_step(model, images, batch, MimicConfig(patch_size=(12, 12)))


def test_head_param_aliased_into_the_trunk_is_configuration_error():
    rng = np.random.default_rng(13)
    model = build_two_branch_model(_tiny_cfg(), 2, rng)
    model.rcnn_head.weight = model.fc.params()[0]
    images = rng.normal(size=(1, 1, 12, 12))
    batch = MimicBatch([RoI(0, 0, 0, 11, 11)], images, np.array([0]))
    with pytest.raises(ConfigurationError, match="alias"):
        mimic_step(model, images, batch, MimicConfig(patch_size=(12, 12)))


@pytest.mark.parametrize("size", [(8.5, 8), (0, 8), (8, -1), (True, 8), (8,), (8, 8, 8), 8])
def test_mimic_config_wants_two_integer_patch_sides(size):
    # (8.5, 8) once passed and failed in training with numpy's TypeError
    with pytest.raises(ConfigurationError, match="patch_size"):
        MimicConfig(patch_size=size)


def test_mimic_step_on_an_empty_batch_is_zero_and_adds_no_gradient():
    rng = np.random.default_rng(14)
    model = build_two_branch_model(_tiny_cfg(), 2, rng)
    images = rng.normal(size=(2, 1, 12, 12))
    batch = MimicBatch([], np.zeros((0, 1, 12, 12)), np.zeros(0, dtype=np.int64))
    total, parts = mimic_step(model, images, batch, MimicConfig(patch_size=(12, 12)))
    assert total == 0.0 and parts == {"task": 0.0, "mimic": 0.0, "rcnn_cls": 0.0}
    assert not any(p.grad.any() for p in model.params())


def test_inference_runs_main_branch_only(monkeypatch):
    cfg = _tiny_cfg()
    rng = np.random.default_rng(8)
    model = build_two_branch_model(cfg, 2, rng)
    calls = []
    orig = model.rcnn_head.forward
    model.rcnn_head.forward = lambda x: calls.append(1) or orig(x)
    images = rng.normal(size=(2, 1, 12, 12))
    rois = [RoI(0, 1, 1, 10, 10), RoI(1, 2, 2, 9, 9)]
    logits = model.infer(images, rois)
    assert logits.shape == (2, 3)
    assert calls == []


@pytest.mark.parametrize("weight, runs", [(0.1, 2), (0.0, 1)])
def test_mimic_step_runs_each_trunk_layer_once_per_branch(monkeypatch, weight, runs):
    calls = Counter()
    for cls in (Conv2dLayer, DeformConv2dLayer, ReLULayer, AffineLayer, RoIPoolLayer):
        for name in ("forward", "backward"):
            def counted(self, *args, _orig=getattr(cls, name), _name=name):
                calls[self.tag, _name] += 1  # a shallow copy keeps its original's tag
                return _orig(self, *args)
            monkeypatch.setattr(cls, name, counted)
    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=12,
                       batch_size=3, head_widths=(8,))
    rng = np.random.default_rng(9)
    model = build_two_branch_model(cfg, 2, rng)
    model.pool = RoIPoolLayer(4, PoolSpec(2, 2, 2), rng, deformable=True, hidden=8)
    trunk = model.backbone.layers + [model.pool] + model.fc.layers
    for tag, layer in enumerate(trunk + [model.frcnn_head, model.rcnn_head]):
        layer.tag = tag
    images = rng.normal(size=(3, 1, 12, 12))
    rois = [RoI(i, 1.0, 2.0, 10.0, 9.0) for i in range(3)]
    batch = MimicBatch(rois, images.copy(), np.array([0, 1, 2]))
    mimic_step(model, images, batch, MimicConfig(mimic_weight=weight, rcnn_cls_weight=weight,
                                                 patch_size=(12, 12)))
    want = Counter()
    for tag in range(len(trunk)):
        want[tag, "forward"] = want[tag, "backward"] = runs
    for tag in (len(trunk), len(trunk) + 1)[:runs]:  # frcnn_head, then rcnn_head if active
        want[tag, "forward"] = want[tag, "backward"] = 1
    assert calls == want


# ---------------------------------------------------------------------------
# demand: the backbone computes only what the RoI pooling reads
# ---------------------------------------------------------------------------

TRUNKS = (("regular", "mdconv"), ("mdconv", "regular"), ("mdconv", "mdconv"), ("dconv",))


def _scaled_err(got, want) -> float:
    """max |got - want| relative to the scale of `want`."""
    want = np.asarray(want, dtype=np.float64)
    diff = np.abs(np.asarray(got, dtype=np.float64) - want).max(initial=0.0)
    return float(diff / max(np.abs(want).max(initial=0.0), 1e-30))


@st.composite
def demand_cases(draw):
    """A two-branch model over a random trunk with moving offsets, aligned
    pooling of a random PoolSpec, images and random RoIs that meet them.
    """
    layers = draw(st.sampled_from(TRUNKS))
    spec = PoolSpec(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    size, n = draw(st.integers(8, 13)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = ToyNetConfig(layers=layers, channels=(3,) * len(layers), image_size=size,
                       batch_size=n)
    model = build_two_branch_model(cfg, 2, rng)
    for layer in model.backbone.layers:
        if isinstance(layer, DeformConv2dLayer):
            for p in (layer.branch_weight, layer.branch_bias):
                p.value[...] = rng.normal(0.0, 0.5, p.value.shape)
    model.pool = RoIPoolLayer(3, spec, rng)
    model.fc.layers[0] = AffineLayer(3 * spec.k, model.fc.layers[0].weight.value.shape[0], rng)
    rois = []
    for _ in range(draw(st.integers(1, 4))):
        y1, x1 = (draw(st.floats(-1.5, size - 1.0)) for _ in range(2))
        # the patch crop needs a RoI that meets the image
        h, w = (max(0.0, -v) + draw(st.floats(0.0, size / 2)) for v in (y1, x1))
        rois.append(RoI(draw(st.integers(0, n - 1)), x1, y1, x1 + w, y1 + h))
    images = rng.normal(size=(n, 1, size, size)).astype(np.float32)
    patches = crop_resize_patch(images, rois, (size, size))
    labels = rng.integers(0, 3, size=len(rois))
    return model, images, MimicBatch(rois, patches, labels), MimicConfig(patch_size=(size, size))


def _full_map_model(model):
    """A copy of `model` whose pooling demands every position, so that its
    backbone runs in full."""
    full = copy.deepcopy(model)
    full.pool.demand = lambda shape, rois: None
    return full


@settings(max_examples=30, deadline=None)
@given(demand_cases())
def test_demanded_backbone_matches_full_map_property(case):
    model, images, batch, cfg = case
    n, _, h, w = images.shape
    demand = model.pool.demand((n, *model.backbone.out_hw((h, w))), batch.rois)
    full = model.backbone.forward(images)
    got = model.backbone.forward(images, demand)
    rows = full.transpose(0, 2, 3, 1).reshape(-1, full.shape[1])
    got_rows = got.transpose(0, 2, 3, 1).reshape(-1, got.shape[1])
    assert _scaled_err(got_rows[demand], rows[demand]) <= 1e-6

    reference = _full_map_model(model)
    upstream = np.random.default_rng(0).normal(size=(len(batch), model.fc.layers[-2].weight
                                                      .value.shape[0]))
    grads_x = []
    for m in (model, reference):
        feat = m.roi_features(images, batch.rois)
        grads_x.append((feat, m.backbone.backward(m.pool.backward(m.fc.backward(upstream)))))
    (feat, gx), (want_feat, want_gx) = grads_x
    assert _scaled_err(feat, want_feat) <= 1e-5
    assert _scaled_err(gx, want_gx) <= 1e-5

    for m in (model, reference):
        for p in m.params():
            p.zero_grad()
    total = mimic_step(model, images, batch, cfg)[0]
    want_total = mimic_step(reference, images, batch, cfg)[0]
    assert abs(total - want_total) <= 1e-5 * max(abs(want_total), 1e-30)
    for p, q in zip(model.params(), reference.params()):
        assert p.name == q.name
        assert _scaled_err(p.grad, q.grad) <= 1e-5, p.name


def test_deformable_pooling_demands_every_position():
    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=12,
                       batch_size=2)
    rng = np.random.default_rng(12)
    model = build_two_branch_model(cfg, 2, rng)
    model.pool = RoIPoolLayer(cfg.channels[-1], PoolSpec(2, 2, 2), rng, deformable=True,
                              hidden=8)
    rois = [RoI(0, 1.0, 2.0, 5.0, 6.0)]
    assert model.pool.demand((2, 12, 12), rois) is None
    model.roi_features(rng.normal(size=(2, 1, 12, 12)), rois)
    layer = next(l for l in model.backbone.layers if isinstance(l, DeformConv2dLayer))
    # a demanded field's modulation is zero off the demand; the whole one is 0.5
    assert layer.recorded_state()[1].modulation.all()


def test_aligned_pooling_demand_is_its_non_zero_weights():
    spec = PoolSpec(1, 1, 1)
    layer = RoIPoolLayer(2, spec, np.random.default_rng(0))
    # one sample at (1.5, 2.0) of item 1: rows 1 and 2, column 2 only
    assert layer.demand((2, 4, 5), [RoI(1, 2.0, 1.0, 2.0, 2.0)]).tolist() == [
        20 + 1 * 5 + 2, 20 + 2 * 5 + 2]
    # samples past the border read nothing there
    assert layer.demand((1, 4, 5), [RoI(0, -3.0, -3.0, -1.0, -1.0)]).size == 0

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcn2.errors import ArgumentError, ConfigurationError, FormatError, ShapeError
from dcn2.mimic import MimicConfig
from dcn2.synthetic import (
    LAYER_KINDS,
    SyntheticTask,
    ToyNetConfig,
    ToyRegressionNet,
    TrainingDiverged,
    build_two_branch_model,
    load_model,
    run_mimic_training,
    run_toy_training,
    save_model,
)


def test_task_generation_pure_function_of_seed():
    task = SyntheticTask(mode="dilate", image_size=16, dilation=2.0, seed=5)
    a = task.sample_batch(np.random.default_rng(3), 4)
    b = task.sample_batch(np.random.default_rng(3), 4)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_task_modes_all_generate():
    rng = np.random.default_rng(0)
    for mode in ("translate", "dilate", "scale-jitter"):
        task = SyntheticTask(mode=mode, image_size=16, seed=0)
        images, targets = task.sample_batch(rng, 3)
        assert images.shape == (3, 1, 16, 16)
        assert targets.shape == (3,)
        assert np.isfinite(images).all() and np.isfinite(targets).all()


def test_unknown_mode_rejected():
    with pytest.raises(ArgumentError):
        SyntheticTask(mode="rotate")


@pytest.mark.parametrize("dilation", [0.0, -2.0, math.nan, math.inf])
def test_non_positive_or_non_finite_dilation_rejected(dilation):
    # at -2 the markers' width was 0 and sampling divided by zero
    with pytest.raises(ArgumentError, match="dilation"):
        SyntheticTask(mode="dilate", dilation=dilation)


def test_dilation_whose_markers_leave_the_image_rejected():
    # 40 once gave a 32x32 task markers 61 pixels from its center
    with pytest.raises(ArgumentError, match="dilation"):
        SyntheticTask(mode="dilate", image_size=32, dilation=40.0)
    # the other modes draw or ignore the dilation
    for mode in ("translate", "scale-jitter"):
        SyntheticTask(mode=mode, image_size=32, dilation=40.0)


def test_dilation_bound_is_the_marker_radius_at_the_image_edge():
    # dilation 10 puts the markers 1 + 1.5 * 10 = 16 = (33 - 1) / 2 from the center
    task = SyntheticTask(mode="dilate", image_size=33, dilation=10.0)
    assert np.isfinite(task.sample_batch(np.random.default_rng(0), 1)[0]).all()
    with pytest.raises(ArgumentError, match="dilation"):
        SyntheticTask(mode="dilate", image_size=33, dilation=math.nextafter(10.0, 11.0))


def test_scale_jitter_markers_must_fit_the_image():
    # scale-jitter draws dilations up to 3: markers 1 + 1.5 * 3 = 5.5 pixels
    # from the center, which an 11x11 image (half-width 5) cannot hold
    with pytest.raises(ArgumentError, match="image_size 11"):
        SyntheticTask(mode="scale-jitter", image_size=11)
    task = SyntheticTask(mode="scale-jitter", image_size=12)
    images, targets = task.sample_batch(np.random.default_rng(0), 4)
    assert np.isfinite(images).all() and np.isfinite(targets).all()


def test_translate_blob_must_fit_the_image():
    # translate draws its blob up to 4 pixels from the center, which an 8x8
    # image (half-width 3.5) cannot hold
    with pytest.raises(ArgumentError, match="image_size 8"):
        SyntheticTask(mode="translate", image_size=8)
    task = SyntheticTask(mode="translate", image_size=9)
    images, targets = task.sample_batch(np.random.default_rng(0), 4)
    assert np.isfinite(images).all() and np.isfinite(targets).all()


def test_detection_boxes_must_fit_the_image():
    # box centers are drawn from [5, image_size - 6]: empty below 11
    cfg = ToyNetConfig(layers=("regular",), channels=(2,), image_size=10, batch_size=2)
    task = SyntheticTask(mode="dilate", image_size=10)
    with pytest.raises(ArgumentError, match="image_size 10"):
        run_mimic_training(cfg, task, 0, 0, MimicConfig(patch_size=(10, 10)))
    task = SyntheticTask(mode="dilate", image_size=11)
    task.check_detection()
    images, proposals, _, _ = task.sample_detection_batch(np.random.default_rng(0), 2)
    assert images.shape == (2, 1, 11, 11) and len(proposals) == 2


def test_dilate_target_is_antisymmetric_amplitude_sum():
    # targets live in the antisymmetric range of four U(0.3, 1) amplitudes
    task = SyntheticTask(mode="dilate", image_size=16, dilation=1.0, seed=0)
    _, targets = task.sample_batch(np.random.default_rng(1), 64)
    assert np.all(np.abs(targets) <= 1.4 + 1e-9)
    assert targets.std() > 0.1


def test_detection_batch_contents():
    task = SyntheticTask(mode="translate", image_size=20, seed=0)
    images, proposals, gt, labels = task.sample_detection_batch(np.random.default_rng(2), 5)
    assert images.shape == (5, 1, 20, 20)
    assert len(proposals) == len(gt) == 5
    assert set(np.unique(labels)) <= {0, 1}
    for p in proposals:
        assert 0 <= p.x1 <= p.x2 <= 19 + 1.5


def test_config_validation():
    with pytest.raises(ArgumentError):
        ToyNetConfig(layers=("rigid",), channels=(4,))
    with pytest.raises(ShapeError):
        ToyNetConfig(layers=("regular",), channels=(4, 4))
    with pytest.raises(ShapeError):
        ToyNetConfig(layers=("regular",), channels=(0,))
    with pytest.raises(ShapeError, match="at least one layer"):
        ToyNetConfig(layers=(), channels=())


# each of these once passed and failed later with numpy's TypeError or ValueError
@pytest.mark.parametrize("error, fields", [
    (ShapeError, {"channels": (2.5, 3)}),
    (ShapeError, {"channels": (True, 3)}),
    (ShapeError, {"head_widths": (4.0,)}),
    (ConfigurationError, {"image_size": 2.5}),
    (ConfigurationError, {"image_size": True}),
    (ConfigurationError, {"batch_size": 2.0}),
])
def test_config_sizes_must_be_integers(error, fields):
    with pytest.raises(error, match="integers"):
        ToyNetConfig(**fields)


@pytest.mark.parametrize("fields", [{"image_size": 32.5}, {"image_size": True},
                                    {"seed": -1}, {"seed": 1.5}])
def test_task_size_and_seed_must_be_integers(fields):
    with pytest.raises(ArgumentError, match=next(iter(fields))):
        SyntheticTask(**fields)


_DEFAULTS = json.loads(ToyNetConfig().to_json())
_FLOAT_KEYS = {k for k, v in _DEFAULTS.items() if isinstance(v, float)}
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=2),
    max_leaves=4,
)
# mostly well-typed values; the override below then mistypes at most one key
_TYPED = {
    "layers": st.lists(st.sampled_from(LAYER_KINDS), min_size=2, max_size=2),
    "channels": st.lists(st.integers(0, 8), min_size=2, max_size=2),
    "bins": st.lists(st.integers(1, 3), min_size=2, max_size=2),
    "pool_samples": st.integers(1, 4),
    "head_widths": st.lists(st.integers(1, 8), max_size=2),
    "mimic": st.booleans(),
    "image_size": st.integers(0, 64),
    "batch_size": st.integers(0, 16),
    **{k: st.floats() | st.integers() for k in _FLOAT_KEYS},
}


@settings(max_examples=400, deadline=None)
@given(st.fixed_dictionaries({}, optional=_TYPED),
       st.dictionaries(st.sampled_from(sorted(_DEFAULTS)) | st.text(max_size=4), _ANY_JSON,
                       max_size=1))
def test_config_from_json_accepts_exactly_well_typed_objects(typed, override):
    obj = {**typed, **override}
    try:
        cfg = ToyNetConfig.from_json(json.dumps(obj))
    except (ArgumentError, ConfigurationError, ShapeError):
        return
    # numbers in float fields come back as floats; everything else as given
    expected = {**_DEFAULTS, **{k: float(v) if k in _FLOAT_KEYS else v for k, v in obj.items()}}
    assert cfg.to_json() == json.dumps(expected, sort_keys=True)
    assert all(math.isfinite(getattr(cfg, k)) for k in _FLOAT_KEYS)


def test_zero_steps_reports_initial_state():
    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=12,
                       batch_size=2)
    task = SyntheticTask(mode="dilate", image_size=12, seed=0)
    metrics, net = run_toy_training(cfg, task, steps=0, seed=0)
    assert metrics["per_step_loss"] == []
    assert metrics["mean_abs_offset"] == {"layer1.mdconv": 0.0}
    assert np.isfinite(metrics["final_eval_loss"])


def test_training_reduces_loss_translate():
    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=16,
                       batch_size=4, learning_rate=0.05)
    task = SyntheticTask(mode="translate", image_size=16, seed=0)
    metrics, _ = run_toy_training(cfg, task, steps=60, seed=0)
    first = np.mean(metrics["per_step_loss"][:10])
    last = np.mean(metrics["per_step_loss"][-10:])
    assert last < first


def test_divergence_raises_with_step_index():
    cfg = ToyNetConfig(layers=("regular",), channels=(4,), image_size=12,
                       batch_size=2, learning_rate=1e7)
    task = SyntheticTask(mode="dilate", image_size=12, seed=0)
    with pytest.raises(TrainingDiverged) as err:
        run_toy_training(cfg, task, steps=60, seed=0)
    assert err.value.step >= 0


@pytest.mark.parametrize("mimic", [False, True])
def test_deformable_divergence_names_floating_point_error(mimic):
    # huge but finite float32 weights overflow inside a step; that must stop
    # training there, not fail the next forward's field validation
    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=12,
                       batch_size=2, learning_rate=1e3)
    task = SyntheticTask(mode="dilate", image_size=12, seed=0)
    with pytest.raises(TrainingDiverged, match="floating-point error"):
        if mimic:
            run_mimic_training(cfg, task, steps=60, seed=0, mimic_cfg=MimicConfig())
        else:
            run_toy_training(cfg, task, steps=60, seed=0)
    if not mimic:
        # 11 steps pass, and the eval forward of the trained net overflows
        with pytest.raises(TrainingDiverged, match="floating-point error") as err:
            run_toy_training(cfg, task, steps=11, seed=0)
        assert err.value.step == 11


def test_dconv_layer_kind_trains():
    cfg = ToyNetConfig(layers=("dconv",), channels=(4,), image_size=12, batch_size=2,
                       learning_rate=0.02)
    task = SyntheticTask(mode="dilate", image_size=12, seed=0)
    metrics, net = run_toy_training(cfg, task, steps=3, seed=0)
    assert "layer0.dconv" in metrics["mean_abs_offset"]
    from dcn2.net import DeformConv2dLayer

    layer = net.trunk.layers[0]
    assert isinstance(layer, DeformConv2dLayer) and not layer.modulated
    assert layer.branch_weight.value.shape[0] == 2 * 9


def test_deterministic_mode_bit_identical_metrics():
    import json

    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=12,
                       batch_size=2)
    task = SyntheticTask(mode="scale-jitter", image_size=12, seed=1)
    m1, _ = run_toy_training(cfg, task, steps=5, seed=9)
    m2, _ = run_toy_training(cfg, task, steps=5, seed=9)
    assert json.dumps(m1, sort_keys=True).encode() == json.dumps(m2, sort_keys=True).encode()


_DEFAULT_CONFIG_JSON = (
    '{"batch_size": 8, "bins": [1, 1], "branch_lr_mult": 0.1, "channels": [8, 8], '
    '"head_widths": [], "image_size": 32, "layers": ["regular", "mdconv"], '
    '"learning_rate": 0.05, "mimic": false, "momentum": 0.9, "pool_samples": 2, '
    '"weight_decay": 0.0001}'
)

_DEFAULT_MODEL_JSON = """{
  "config": {
    "batch_size": 8,
    "bins": [
      1,
      1
    ],
    "branch_lr_mult": 0.1,
    "channels": [
      8,
      8
    ],
    "head_widths": [],
    "image_size": 32,
    "layers": [
      "regular",
      "mdconv"
    ],
    "learning_rate": 0.05,
    "mimic": false,
    "momentum": 0.9,
    "pool_samples": 2,
    "weight_decay": 0.0001
  },
  "params": {
    "head_out.bias": "param007.dcnt",
    "head_out.weight": "param006.dcnt",
    "layer0.regular.bias": "param001.dcnt",
    "layer0.regular.weight": "param000.dcnt",
    "layer1.mdconv.bias": "param003.dcnt",
    "layer1.mdconv.branch_bias": "param005.dcnt",
    "layer1.mdconv.branch_weight": "param004.dcnt",
    "layer1.mdconv.weight": "param002.dcnt"
  }
}"""


def test_default_config_and_model_json_bytes_are_pinned(tmp_path):
    # the model-file format: the bytes must not move when the config class does
    assert ToyNetConfig().to_json() == _DEFAULT_CONFIG_JSON
    save_model(ToyRegressionNet(ToyNetConfig(), np.random.default_rng(0)), tmp_path)
    assert (tmp_path / "model.json").read_bytes() == _DEFAULT_MODEL_JSON.encode("ascii")


def test_head_widths_train_and_round_trip_through_model_files(tmp_path):
    cfg = ToyNetConfig(channels=(4, 4), image_size=12, batch_size=2, head_widths=(6, 5))
    task = SyntheticTask(mode="dilate", image_size=12, seed=0)
    metrics, net = run_toy_training(cfg, task, steps=2, seed=1)
    assert len(metrics["per_step_loss"]) == 2 and math.isfinite(metrics["final_eval_loss"])
    assert [p.value.shape for p in net.head.params()] == [(6, 4), (6,), (5, 6), (5,), (1, 5), (1,)]
    save_model(net, tmp_path)
    back = load_model(tmp_path)
    assert back.cfg == cfg
    for p, q in zip(net.params(), back.params(), strict=True):
        assert p.name == q.name and np.array_equal(p.value, q.value)
    images, _ = task.sample_batch(np.random.default_rng(2), 3)
    assert np.array_equal(back.forward(images), net.forward(images))


def test_fc_stack_parameter_names_are_pinned():
    # model files key on these names: the prefix and the layer's index in its list
    trunk = ["layer0.regular.weight", "layer0.regular.bias", "layer1.mdconv.weight",
             "layer1.mdconv.bias", "layer1.mdconv.branch_weight", "layer1.mdconv.branch_bias"]
    net = ToyRegressionNet(ToyNetConfig(head_widths=(4, 3)), np.random.default_rng(0))
    assert [p.name for p in net.params()] == trunk + [
        "head0.weight", "head0.bias", "head2.weight", "head2.bias",
        "head_out.weight", "head_out.bias"]
    model = build_two_branch_model(ToyNetConfig(), 2, np.random.default_rng(0))
    assert [p.name for p in model.params()] == trunk + [
        "fc0.weight", "fc0.bias", "frcnn_head.weight", "frcnn_head.bias",
        "rcnn_head.weight", "rcnn_head.bias"]
    assert model.fc.params()[0].value.shape == (32, 8 * 2 * 2)


def test_malformed_parameter_file_is_format_error_naming_it(tmp_path):
    save_model(ToyRegressionNet(ToyNetConfig(), np.random.default_rng(0)), tmp_path)
    broken = tmp_path / "param003.dcnt"
    broken.write_bytes(b"not a tensor")
    with pytest.raises(FormatError, match=str(broken)):
        load_model(tmp_path)


def test_manifest_naming_other_parameters_is_format_error(tmp_path):
    save_model(ToyRegressionNet(ToyNetConfig(), np.random.default_rng(0)), tmp_path)
    path = tmp_path / "model.json"
    manifest = json.loads(path.read_text())
    manifest["params"]["head1.weight"] = manifest["params"].pop("head_out.weight")
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="one file name per parameter"):
        load_model(tmp_path)

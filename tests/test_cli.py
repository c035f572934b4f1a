import contextlib
import io
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcn2.cli import (
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    conv_macs,
    conv_params,
    main,
    mdconv_macs,
    mdconv_params,
)
from dcn2.errors import CapabilityError, ConfigurationError, ConvergenceError, ShapeError
from dcn2.imageio import encode_pgm
from dcn2.synthetic import ToyNetConfig, ToyRegressionNet, save_model


@pytest.fixture()
def pgm_image(tmp_path):
    rng = np.random.default_rng(0)
    plane = rng.uniform(0.2, 1.0, size=(24, 24))
    path = tmp_path / "input.pgm"
    path.write_bytes(encode_pgm(plane))
    return str(path)


def test_gradcheck_subcommand_passes(capsys):
    assert main(["gradcheck", "--op", "bilinear", "--seeds", "3"]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 3
    for line in lines:
        rep = json.loads(line)
        assert rep["pass"] is True
        assert rep["op"] == "bilinear"


def test_gradcheck_unknown_op_is_usage_error():
    assert main(["gradcheck", "--op", "nosuch"]) == EXIT_USAGE


@pytest.mark.parametrize("command, flag, value", [
    ("gradcheck", "--seeds", "0"), ("gradcheck", "--seeds", "-2"),
    ("gradcheck", "--threads", "0"), ("gradcheck", "--threads", "-3"),
    ("demo-train", "--threads", "0"), ("demo-train", "--steps", "-1"),
    ("saliency", "--segments", "0"), ("saliency", "--segments", "-3"),
])
def test_bad_count_flag_is_usage_error(capsys, pgm_image, command, flag, value):
    # a check of zero seeds would pass vacuously, a negative step count
    # would reach metrics.json, and a segment count below 1 was reported
    # under the library's name for it
    extra = {"gradcheck": ["--op", "bilinear"], "demo-train": ["--steps", "0"],
             "saliency": ["--image", pgm_image]}[command]
    assert main([command, *extra, f"{flag}={value}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, flag, value", [
    ("gradcheck", "--tolerance", "nan"), ("gradcheck", "--tolerance", "inf"),
    ("demo-train", "--mimic-weight", "nan"), ("demo-train", "--mimic-weight", "-inf"),
    ("demo-train", "--dilation", "nan"), ("demo-train", "--dilation", "inf"),
])
def test_non_finite_float_flag_is_usage_error(capsys, command, flag, value):
    extra = ["--op", "bilinear"] if command == "gradcheck" else ["--mimic", "--steps", "1"]
    assert main([command, *extra, f"{flag}={value}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_saliency_non_finite_epsilon_is_usage_error(capsys, pgm_image, value):
    # NaN once passed the library's `epsilon <= 0` test and ended as a
    # convergence failure (exit 3)
    assert main(["saliency", "--image", pgm_image, f"--epsilon={value}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--epsilon" in captured.err
    assert captured.out == ""


def test_unknown_subcommand_usage_exit():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_flop_formula_documented_case():
    # dense 3x3, C_in=C_out=64, 128x128 output
    macs = conv_macs(64, 64, 3, 3, 128, 128)
    assert 2 * macs == 2 * 64 * 64 * 9 * 128 * 128


def _loop_counter_macs(c_in, c_out, kh, kw, h_out, w_out):
    count = 0
    for _ in range(c_out):
        for _ in range(c_in):
            for _ in range(kh):
                for _ in range(kw):
                    count += h_out * w_out
    return count


def test_mac_counters_match_loop_counter():
    assert conv_macs(3, 5, 3, 3, 4, 6) == _loop_counter_macs(3, 5, 3, 3, 4, 6)
    k = 9
    assert mdconv_macs(3, 5, 3, 3, 4, 6) == (
        _loop_counter_macs(3, 5, 3, 3, 4, 6) + _loop_counter_macs(3, 3 * k, 3, 3, 4, 6)
    )
    assert conv_params(3, 5, 3, 3) == 5 * 3 * 9 + 5
    assert mdconv_params(3, 5, 3, 3) == conv_params(3, 5, 3, 3) + conv_params(3, 27, 3, 3)


def test_bench_small_shape(tmp_path, capsys):
    out = str(tmp_path / "bench")
    code = main(["bench", "--shape", "1,4,16,16", "--cout", "4", "--repeats", "1",
                 "--out", out])
    assert code == EXIT_OK
    rep = json.loads((tmp_path / "bench" / "bench.json").read_text())
    assert rep["speedup"] > 0
    assert rep["dense_flops"] == 2 * rep["dense_macs"]


def test_bench_bad_kernel_is_usage_error():
    assert main(["bench", "--kernel", "0,3", "--shape", "1,2,8,8", "--cout", "2"]) == EXIT_USAGE


@pytest.mark.parametrize("flag, value", [
    ("--repeats", "0"), ("--repeats", "-1"), ("--cout", "-1"), ("--shape", "1,-1,4,4"),
    ("--shape", "-1,1,4,4"),
])
def test_bench_bad_extent_is_usage_error(capsys, flag, value):
    argv = ["bench", "--shape", "1,1,4,4", "--cout", "1", "--repeats", "1", f"{flag}={value}"]
    assert main(argv) == EXIT_USAGE
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("gradcheck", "--seed", "3"), ("saliency", "--seed", "3"), ("erf", "--seed", "3"),
    ("gradcheck", "--config", "x.json"), ("bench", "--config", "x.json"),
    ("saliency", "--config", "x.json"), ("erf", "--config", "x.json"),
])
def test_flag_on_subcommand_that_ignores_it_is_usage_error(capsys, pgm_image, command, flag,
                                                           value):
    argv = [command, flag, value]
    if command in ("saliency", "erf"):
        argv += ["--image", pgm_image]
    assert main(argv) == EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_bench_zero_output_channels(capsys):
    assert main(["bench", "--shape", "1,1,4,4", "--cout", "0", "--repeats", "1"]) == EXIT_OK


def test_failing_gradcheck_is_numeric_exit(capsys):
    code = main(["gradcheck", "--op", "bilinear", "--seeds", "1", "--tolerance", "1e-300"])
    assert code == EXIT_DIVERGED
    assert json.loads(capsys.readouterr().out)["pass"] is False


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--shape", "1,1,4,4", "--cout", "1", "--repeats", "1", "--seed=-1"], "--seed"),
    (["demo-train", "--steps", "0", "--seed=-1"], "--seed"),
    (["demo-train", "--steps", "0", "--task-seed=-1"], "--task-seed"),
    (["gradcheck", "--op", "bilinear", "--tolerance=-1"], "--tolerance"),
    (["gradcheck", "--op", "bilinear", "--tolerance=0"], "--tolerance"),
    (["demo-train", "--steps", "1", "--dilation=0"], "--dilation"),
    (["demo-train", "--steps", "1", "--dilation=-2"], "--dilation"),
], ids=["bench-seed", "demo-train-seed", "demo-train-task-seed", "tolerance-negative",
        "tolerance-zero", "dilation-zero", "dilation-negative"])
def test_out_of_range_seed_or_tolerance_is_usage_error(capsys, argv, flag):
    # a negative seed once ended in numpy's ValueError traceback, a
    # tolerance of zero or less failed every check with the divergence code,
    # and a dilation of -2 gave the task's markers a width of 0
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("steps, dilation", [("0", "1e300"), ("1", "1e300"), ("0", "40")])
def test_dilation_whose_markers_leave_the_image_is_usage_error(capsys, steps, dilation):
    # 1e300 once exited as a modulation range error at 0 steps and as
    # divergence at 1; 40 trained on markers outside the 32x32 image
    assert main(["demo-train", f"--steps={steps}", f"--dilation={dilation}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--dilation" in captured.err
    assert captured.out == ""


# seeds: negative, zero, small and beyond 64 bits
_SEEDS = st.one_of(st.integers(-3, 3), st.integers(2**62, 2**80), st.integers(-(2**80), -(2**62)))


def _assert_contract_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGED, EXIT_IO)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=200, deadline=2000)
@given(st.lists(st.integers(-1, 3), min_size=8, max_size=8), _SEEDS)
def test_bench_argument_vectors_exit_with_contract_code(values, seed):
    n, c, h, w, cout, kh, kw, repeats = values
    _assert_contract_exit(["bench", f"--shape={n},{c},{h},{w}", f"--cout={cout}",
                           f"--kernel={kh},{kw}", f"--repeats={repeats}", f"--seed={seed}"])


# a numeric warning is a fault: the dilate task once rendered 1e300 in overflow
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@example(0, 0, 0, "dilate", "1e300", False, None)
@given(st.integers(0, 1), _SEEDS, _SEEDS, st.sampled_from(["translate", "dilate", "scale-jitter"]),
       st.sampled_from(["2", "0", "-2", "1e300", "nan"]), st.booleans(),
       st.sampled_from([None, "regular", "mdconv,dconv", "regular,,mdconv", "bogus"]))
def test_demo_train_argument_vectors_exit_with_contract_code(steps, seed, task_seed, task,
                                                             dilation, mimic, layers):
    argv = ["demo-train", f"--steps={steps}", f"--seed={seed}", f"--task-seed={task_seed}",
            f"--task={task}", f"--dilation={dilation}"]
    argv += ["--mimic"] * mimic + ([f"--layers={layers}"] if layers is not None else [])
    _assert_contract_exit(argv)


@pytest.fixture(scope="module")
def probe_files(tmp_path_factory):
    """A 24x24 PGM image and a saved regular + mdconv model for `net:` probes."""
    root = tmp_path_factory.mktemp("probe_files")
    plane = np.random.default_rng(0).uniform(0.2, 1.0, size=(24, 24))
    (root / "input.pgm").write_bytes(encode_pgm(plane))
    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=24)
    save_model(ToyRegressionNet(cfg, np.random.default_rng(0)), root / "model")
    return str(root / "input.pgm"), str(root / "model")


_PROBES = st.sampled_from(["window:8,8,8,8", "window-mean:0,0,24,24", "window:20,20,8,8",
                           "const", "net:12,12", "net:30,1", "net:a", "bogus:1"])


@settings(max_examples=40, deadline=None)
@given(_PROBES, st.booleans(), st.sampled_from(["0.1", "0.5", "1e-12", "0", "-1", "nan"]),
       st.sampled_from([None, "11.5,11.5", "0,23", "-5,40", "nan,1", "1"]),
       st.integers(-1, 30))
def test_saliency_argument_vectors_exit_with_contract_code(probe_files, probe, with_model,
                                                           epsilon, center, segments):
    image, model = probe_files
    argv = ["saliency", "--image", image, f"--probe={probe}", f"--epsilon={epsilon}",
            f"--segments={segments}"]
    argv += ["--model", model] * with_model + ([f"--center={center}"] if center else [])
    _assert_contract_exit(argv)


@settings(max_examples=40, deadline=None)
@given(_PROBES, st.booleans())
def test_erf_argument_vectors_exit_with_contract_code(probe_files, probe, with_model):
    image, model = probe_files
    _assert_contract_exit(["erf", "--image", image, f"--probe={probe}"]
                          + ["--model", model] * with_model)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["bilinear", "cosine_mimic", "roi_branch", "bil*", "nosuch"]),
       st.integers(-1, 2), st.sampled_from(["1e-3", "1e300", "1e-300", "0", "-1", "nan", "x"]))
def test_gradcheck_argument_vectors_exit_with_contract_code(op, seeds, tolerance):
    _assert_contract_exit(["gradcheck", f"--op={op}", f"--seeds={seeds}",
                           f"--tolerance={tolerance}"])


@pytest.mark.parametrize("error, code", [
    (ShapeError, EXIT_USAGE),
    (ConfigurationError, EXIT_USAGE),
    (CapabilityError, EXIT_USAGE),
    (ConvergenceError, EXIT_DIVERGED),
])
def test_library_errors_map_to_exit_codes(monkeypatch, pgm_image, error, code):
    import dcn2.cli as cli

    def fail(*args, **kwargs):
        raise error("raised by the library")

    monkeypatch.setattr(cli, "effective_receptive_field", fail)
    assert main(["erf", "--image", pgm_image]) == code


def test_demo_train_deterministic_metrics(tmp_path):
    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=12,
                       batch_size=2, learning_rate=0.05)
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(cfg.to_json())
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["demo-train", "--config", str(cfg_path), "--steps", "4",
                     "--seed", "7", "--task", "dilate", "--out", str(out)])
        assert code == EXIT_OK
        outs.append((out / "metrics.json").read_bytes())
    assert outs[0] == outs[1]


def test_demo_train_mimic_deterministic_metrics(tmp_path):
    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=16,
                       batch_size=2, mimic=True)
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(cfg.to_json())
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["demo-train", "--config", str(cfg_path), "--steps", "4",
                     "--seed", "7", "--task", "dilate", "--out", str(out)])
        assert code == EXIT_OK
        outs.append((out / "metrics.json").read_bytes())
    assert b'"history"' in outs[0]
    assert outs[0] == outs[1]


def test_demo_train_zero_steps_zero_offsets(tmp_path):
    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=12,
                       batch_size=2)
    cfg_path = tmp_path / "net.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "run"
    assert main(["demo-train", "--config", str(cfg_path), "--steps", "0",
                 "--out", str(out)]) == EXIT_OK
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["per_step_loss"] == []
    assert all(v == 0.0 for v in metrics["mean_abs_offset"].values())


def test_demo_train_divergence_exit_code(tmp_path, capsys):
    # with a deformable layer, the next forward's field validation must not
    # pre-empt the divergence exit
    for layers in (("regular", "regular"), ("regular", "mdconv")):
        cfg = ToyNetConfig(layers=layers, channels=(4, 4), image_size=12,
                           batch_size=2, learning_rate=1e6)
        cfg_path = tmp_path / "net.json"
        cfg_path.write_text(cfg.to_json())
        assert main(["demo-train", "--config", str(cfg_path), "--steps", "40"]) == EXIT_DIVERGED
        assert "diverged:" in capsys.readouterr().err


def test_config_round_trip_parse_serialize_parse(tmp_path):
    cfg = ToyNetConfig(layers=("dconv",), channels=(5,), image_size=20,
                       learning_rate=0.125, head_widths=(16,))
    text = cfg.to_json()
    again = ToyNetConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text


def test_saliency_subcommand_writes_artifacts(tmp_path, pgm_image):
    out = tmp_path / "sal"
    code = main(["saliency", "--image", pgm_image, "--probe", "window:8,8,8,8",
                 "--center", "11.5,11.5", "--segments", "25", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "saliency.json").read_text())
    assert report["epsilon"] == pytest.approx(0.1)  # default when flag omitted
    assert report["achieved_error"] < 0.1
    mask = (out / "mask.pgm").read_bytes()
    assert mask.startswith(b"P5")


def test_erf_subcommand_constant_probe_zero(tmp_path, pgm_image):
    out = tmp_path / "erf"
    code = main(["erf", "--image", pgm_image, "--probe", "const", "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads((out / "erf.json").read_text())
    assert rep["peak_magnitude"] == 0.0
    assert rep["nonzero"] == 0


def test_erf_window_mean_probe(tmp_path, pgm_image):
    out = tmp_path / "erf"
    code = main(["erf", "--image", pgm_image, "--probe", "window-mean:4,4,8,8",
                 "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads((out / "erf.json").read_text())
    assert rep["nonzero"] == 64


@pytest.mark.parametrize("argv", [
    ["demo-train", "--steps", "1"],
    ["saliency", "--probe", "window:8,8,8,8", "--segments", "25"],
    ["erf", "--probe", "window-mean:4,4,8,8"],
], ids=["demo-train", "saliency", "erf"])
def test_report_printed_once_without_out(capsys, pgm_image, argv):
    if argv[0] != "demo-train":
        argv = [*argv, "--image", pgm_image]
    assert main(argv) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 1
    json.loads(lines[0])


def test_unresolvable_probe_is_usage_error(pgm_image):
    assert main(["saliency", "--image", pgm_image, "--probe", "bogus:1"]) == EXIT_USAGE
    assert main(["erf", "--image", pgm_image, "--probe", "net:1,1"]) == EXIT_USAGE


@pytest.mark.parametrize("command,probe", [
    ("saliency", "window:-4,0,8,8"),  # negative origin
    ("erf", "window:20,20,8,8"),  # runs past the 24x24 image
    ("erf", "window-mean:40,40,8,8"),  # misses the image entirely
    ("erf", "window-mean:4,4,0,8"),  # empty window
])
def test_probe_window_outside_image_is_usage_error(pgm_image, command, probe):
    assert main([command, "--image", pgm_image, "--probe", probe]) == EXIT_USAGE


@pytest.mark.parametrize("center", ["a,b", "1", "nan,12", "1e9,1e9", "-0.5,3"])
def test_bad_saliency_center_is_usage_error(pgm_image, center, capsys):
    assert main(["saliency", "--image", pgm_image, f"--center={center}"]) == EXIT_USAGE
    assert "--center" in capsys.readouterr().err


@pytest.mark.parametrize("payload", ['{"mimic": "café"}'.encode("utf-8"), b"{not json"],
                         ids=["non_ascii", "not_json"])
def test_unreadable_config_is_usage_error(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_bytes(payload)
    assert main(["demo-train", "--config", str(path), "--steps", "0"]) == EXIT_USAGE


@pytest.mark.parametrize("payload, complaint", [
    ('{"channels": 5}', "'channels' must be a list"),
    ("[1, 2]", "must be a JSON object"),
    ('{"layers": "regular"}', "'layers' must be a list"),
    ('{"mimic": "false"}', "'mimic' wants a JSON bool"),
    ('{"channels": [2.9, 8]}', "'channels' wants a JSON int"),
    ('{"channels": [true, 8]}', "'channels' wants a JSON int"),
    ('{"learning_rate": "nan"}', "'learning_rate' wants a finite JSON float"),
    ('{"momentum": "1e400"}', "'momentum' wants a finite JSON float"),
    ('{"momentum": 1e400}', "'momentum' wants a finite JSON float"),
    ('{"batch_size": 0}', "batch_size must be >= 1"),
    ('{"image_size": 1e9}', "'image_size' wants a JSON int"),
    ('{"learning_rat": 0.1}', "unknown config keys ['learning_rat']"),
], ids=["scalar_list", "top_level_list", "string_list", "string_bool", "float_int", "bool_int",
        "string_float", "string_inf_float", "inf_float", "zero_batch", "float_image_size",
        "unknown_key"])
def test_config_wrong_json_type_is_usage_error(tmp_path, capsys, payload, complaint):
    path = tmp_path / "cfg.json"
    path.write_text(payload)
    assert main(["demo-train", "--config", str(path), "--steps", "0"]) == EXIT_USAGE
    assert complaint in capsys.readouterr().err


def test_missing_image_is_io_error(tmp_path):
    assert main(["erf", "--image", str(tmp_path / "nope.pgm"),
                 "--probe", "const"]) == EXIT_IO


def test_bad_image_payload_is_io_error(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\nxx")
    assert main(["erf", "--image", str(path), "--probe", "const"]) == EXIT_IO


def test_model_save_load_round_trip(tmp_path):
    from dcn2.synthetic import SyntheticTask, load_model, run_toy_training, save_model

    cfg = ToyNetConfig(layers=("regular", "mdconv"), channels=(4, 4), image_size=12,
                       batch_size=2)
    task = SyntheticTask(mode="dilate", image_size=12, seed=0)
    _, net = run_toy_training(cfg, task, steps=2, seed=0)
    save_model(net, tmp_path / "model")
    net2 = load_model(tmp_path / "model")
    rng = np.random.default_rng(1)
    images = rng.normal(size=(2, 1, 12, 12))
    assert np.allclose(net.forward(images), net2.forward(images), atol=1e-6)


def test_net_probe_via_model_dir(tmp_path, pgm_image):
    from dcn2.synthetic import SyntheticTask, run_toy_training, save_model

    cfg = ToyNetConfig(layers=("regular",), channels=(4,), image_size=24, batch_size=2)
    task = SyntheticTask(mode="dilate", image_size=24, seed=0)
    _, net = run_toy_training(cfg, task, steps=1, seed=0)
    save_model(net, tmp_path / "model")
    out = tmp_path / "erf"
    code = main(["erf", "--image", pgm_image, "--probe", "net:12,12",
                 "--model", str(tmp_path / "model"), "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads((out / "erf.json").read_text())
    assert rep["nonzero"] > 0


def _rewrite_manifest(model, edit):
    path = model / "model.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    return path


def _rewrite_param(model, edit):
    path = model / "param000.dcnt"
    buf = path.read_bytes()
    path.write_bytes(buf[:8] + edit(buf[24:]))  # keep the magic, redo the extents
    return path


def _write_manifest_bytes(model, payload):
    path = model / "model.json"
    path.write_bytes(payload)
    return path


_MODEL_FAULTS = {
    "short_param": lambda m: _rewrite_param(
        m, lambda v: struct.pack("<4I", 1, 1, 1, len(v) // 4 - 1) + v[4:]),
    "nan_param": lambda m: _rewrite_param(
        m, lambda v: struct.pack("<4I", 1, 1, 1, len(v) // 4) + struct.pack("<f", np.nan) + v[4:]),
    "no_params": lambda m: _rewrite_manifest(m, lambda d: d.pop("params")),
    "params_list": lambda m: _rewrite_manifest(
        m, lambda d: d.update(params=sorted(d["params"].values()))),
    "string_bool_config": lambda m: _rewrite_manifest(
        m, lambda d: d["config"].update(mimic="false")),
    "not_json": lambda m: _write_manifest_bytes(m, b"{not json"),
    "non_ascii": lambda m: _write_manifest_bytes(m, '{"config": "café"}'.encode("utf-8")),
}


@pytest.mark.parametrize("fault", sorted(_MODEL_FAULTS))
def test_malformed_model_dir_is_io_error(tmp_path, capsys, pgm_image, fault):
    cfg = ToyNetConfig(layers=("regular",), channels=(4,), image_size=24)
    model = tmp_path / "model"
    save_model(ToyRegressionNet(cfg, np.random.default_rng(0)), model)
    broken = _MODEL_FAULTS[fault](model)
    assert main(["erf", "--image", pgm_image, "--probe", "net:4,4",
                 "--model", str(model)]) == EXIT_IO
    assert str(broken) in capsys.readouterr().err


@pytest.mark.parametrize("node", ["100,100", "-3,2"])
def test_net_probe_outside_output_map_is_usage_error(tmp_path, pgm_image, node):
    from dcn2.synthetic import SyntheticTask, run_toy_training, save_model

    cfg = ToyNetConfig(layers=("regular",), channels=(4,), image_size=24, batch_size=2)
    task = SyntheticTask(mode="dilate", image_size=24, seed=0)
    _, net = run_toy_training(cfg, task, steps=1, seed=0)
    save_model(net, tmp_path / "model")
    assert main(["erf", "--image", pgm_image, "--probe", f"net:{node}",
                 "--model", str(tmp_path / "model")]) == EXIT_USAGE


def test_threads_env_fallback(monkeypatch, kernel_threads):
    from dcn2 import runtime

    monkeypatch.setenv("DCN2_THREADS", "3")
    kernel_threads(None)
    assert runtime.num_threads() == 3
    monkeypatch.delenv("DCN2_THREADS")
    kernel_threads(None)
    assert runtime.num_threads() == 1

"""Command-line harness: `dcn2 gradcheck|bench|demo-train|saliency|erf`.

Exit codes are a stable contract: 0 success, 2 usage error (bad arguments,
shapes, configuration or probe capability), 3 numeric divergence or
non-convergence (a gradient check that fails included), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import checks, runtime
from .deform_conv import ConvWeights, KernelSpec, OffsetModulationField, \
    mdconv_forward, mdconv_forward_optimized
from .errors import (
    ArgumentError,
    CapabilityError,
    ConfigurationError,
    ConvergenceError,
    FormatError,
    ShapeError,
    UsageError,
)
from .imageio import encode_mask_pgm, encode_pgm, load_image
from .mimic import MimicConfig
from .support import (
    NodeProbe,
    constant_probe,
    effective_receptive_field,
    network_probe,
    saliency_region,
    window_mean_probe,
    window_probe,
)
from .synthetic import (
    SyntheticTask,
    ToyNetConfig,
    TrainingDiverged,
    load_model,
    run_mimic_training,
    run_toy_training,
    save_model,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# parameter / MAC counting (documented formulas: FLOPs = 2 * MACs)
# ---------------------------------------------------------------------------

def conv_macs(c_in: int, c_out: int, kh: int, kw: int, h_out: int, w_out: int) -> int:
    return c_out * c_in * kh * kw * h_out * w_out


def conv_params(c_in: int, c_out: int, kh: int, kw: int, bias: bool = True) -> int:
    return c_out * c_in * kh * kw + (c_out if bias else 0)


def mdconv_macs(c_in: int, c_out: int, kh: int, kw: int, h_out: int, w_out: int,
                modulated: bool = True) -> int:
    """Main convolution plus the sibling branch, which is a dense convolution
    with 3K (or 2K, unmodulated) output channels at the same resolution.
    """
    k = kh * kw
    branch_out = 3 * k if modulated else 2 * k
    return conv_macs(c_in, c_out, kh, kw, h_out, w_out) + \
        conv_macs(c_in, branch_out, kh, kw, h_out, w_out)


def mdconv_params(c_in: int, c_out: int, kh: int, kw: int, bias: bool = True,
                  modulated: bool = True) -> int:
    k = kh * kw
    branch_out = 3 * k if modulated else 2 * k
    return conv_params(c_in, c_out, kh, kw, bias) + conv_params(c_in, branch_out, kh, kw, bias)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _write_out(out_dir: str | None, name: str, payload: bytes | str) -> None:
    """Write `name` under `out_dir`; without one, a text payload is printed to
    stdout (the command's report, printed once here) and bytes are dropped.
    """
    if out_dir is None:
        if isinstance(payload, str):
            sys.stdout.write(payload)
        return
    os.makedirs(out_dir, exist_ok=True)
    mode = "wb" if isinstance(payload, bytes) else "w"
    with open(os.path.join(out_dir, name), mode) as fh:
        fh.write(payload)


def cmd_gradcheck(args) -> int:
    reports = checks.run_gradcheck(args.op, seeds=args.seeds, tolerance=args.tolerance)
    lines = [r.to_json() for r in reports]
    text = "\n".join(lines) + ("\n" if lines else "")
    sys.stdout.write(text)
    if args.out:
        _write_out(args.out, "gradcheck.jsonl", text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_DIVERGED


def cmd_bench(args) -> int:
    n, c_in, h, w = args.shape
    kh, kw = args.kernel
    spec = KernelSpec(kh, kw, pad=(kh // 2, kw // 2))
    rng = np.random.default_rng(args.seed)
    x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
    weights = ConvWeights(rng.normal(size=(args.cout, c_in, kh, kw)).astype(np.float32),
                          np.zeros(args.cout, dtype=np.float32))
    h_out, w_out = spec.out_size(h, w)
    field = OffsetModulationField(
        rng.uniform(-1.0, 1.0, size=(n, 2 * spec.k, h_out, w_out)).astype(np.float32),
        rng.uniform(0.2, 0.9, size=(n, spec.k, h_out, w_out)).astype(np.float32),
    )

    def best_time(fn, repeats):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_opt = best_time(lambda: mdconv_forward_optimized(x, weights, spec, field), args.repeats)
    # one pass of the per-position reference kernel is minutes at real sizes
    t_ref = best_time(lambda: mdconv_forward(x, weights, spec, field), 1)
    macs_main = conv_macs(c_in, args.cout, kh, kw, h_out, w_out)
    macs_md = mdconv_macs(c_in, args.cout, kh, kw, h_out, w_out)
    result = {
        "shape": list(args.shape),
        "c_out": args.cout,
        "kernel": [kh, kw],
        "oracle_seconds": t_ref,
        "optimized_seconds": t_opt,
        "speedup": t_ref / t_opt if t_opt > 0 else float("inf"),
        "dense_macs": macs_main,
        "dense_flops": 2 * macs_main,
        "mdconv_macs": macs_md,
        "mdconv_flops": 2 * macs_md,
        "dense_params": conv_params(c_in, args.cout, kh, kw),
        "mdconv_params": mdconv_params(c_in, args.cout, kh, kw),
    }
    table = (
        f"kernel {kh}x{kw}  in {n}x{c_in}x{h}x{w}  out channels {args.cout}\n"
        f"  oracle forward     {t_ref * 1e3:10.2f} ms\n"
        f"  optimized forward  {t_opt * 1e3:10.2f} ms\n"
        f"  speedup            {result['speedup']:10.2f} x\n"
        f"  dense conv         {macs_main} MACs ({2 * macs_main} FLOPs), "
        f"{result['dense_params']} params\n"
        f"  mdconv (+branch)   {macs_md} MACs ({2 * macs_md} FLOPs), "
        f"{result['mdconv_params']} params\n"
    )
    sys.stdout.write(table)
    _write_out(args.out, "bench.json", json.dumps(result, sort_keys=True) + "\n")
    return EXIT_OK


def _load_net_config(args) -> ToyNetConfig:
    if not args.config:
        return ToyNetConfig()
    with open(args.config, "r", encoding="ascii") as fh:
        try:
            return ToyNetConfig.from_json(fh.read())
        except ValueError as exc:  # not ASCII, not JSON, or a malformed value
            raise ConfigurationError(f"config {args.config}: {exc}") from None


def cmd_demo_train(args) -> int:
    from dataclasses import replace

    cfg = _load_net_config(args)
    if args.layers:
        kinds = tuple(args.layers.split(","))
        cfg = replace(cfg, layers=kinds, channels=tuple([cfg.channels[0]] * len(kinds)))
    try:
        task = SyntheticTask(mode=args.task, image_size=cfg.image_size,
                             dilation=args.dilation, seed=args.task_seed)
    except ArgumentError as exc:  # the parser has checked every other task argument
        raise UsageError(f"--dilation: {exc}") from None
    if cfg.mimic or args.mimic:
        mimic_cfg = MimicConfig(patch_size=(cfg.image_size, cfg.image_size))
        if args.mimic_weight is not None:
            mimic_cfg = replace(mimic_cfg, mimic_weight=args.mimic_weight,
                                rcnn_cls_weight=args.mimic_weight)
        metrics, _ = run_mimic_training(cfg, task, args.steps, args.seed, mimic_cfg)
    else:
        metrics, net = run_toy_training(cfg, task, args.steps, args.seed)
        if args.out:
            save_model(net, os.path.join(args.out, "model"))
    text = json.dumps(metrics, sort_keys=True) + "\n"
    _write_out(args.out, "metrics.json", text)
    if args.out:
        sys.stdout.write(f"final loss {metrics.get('final_eval_loss', float('nan'))}\n")
    return EXIT_OK


def _build_probe(args, image_shape) -> NodeProbe:
    sel = args.probe
    kind, _, rest = sel.partition(":")
    if kind == "const":
        return constant_probe()
    if kind in ("window", "window-mean"):
        try:
            y, x, h, w = (int(v) for v in rest.split(","))
        except ValueError:
            raise UsageError(f"selector {sel!r}: want {kind}:y,x,h,w") from None
        img_h, img_w = image_shape[-2:]
        if min(y, x) < 0 or min(h, w) < 1 or y + h > img_h or x + w > img_w:
            raise UsageError(f"selector {sel!r}: window must lie inside the "
                             f"{img_h}x{img_w} image")
        return window_probe(y, x, h, w) if kind == "window" else window_mean_probe(y, x, h, w)
    if kind == "net":
        if not args.model:
            raise UsageError("net probe requires --model")
        try:
            y, x = (int(v) for v in rest.split(","))
        except ValueError:
            raise UsageError(f"selector {sel!r}: want net:y,x") from None
        return network_probe(load_model(args.model).trunk, y, x)
    raise UsageError(f"unknown node selector {sel!r}")


def cmd_saliency(args) -> int:
    image = load_image(args.image)
    probe = _build_probe(args, image.shape)
    center = None
    if args.center:
        try:
            cy, cx = (float(v) for v in args.center.split(","))
        except ValueError:
            cy = cx = math.nan
        h, w = image.shape[-2:]
        if not (0 <= cy <= h - 1 and 0 <= cx <= w - 1):  # NaN fails too
            raise UsageError(f"--center {args.center!r}: want cy,cx inside the {h}x{w} image")
        center = (cy, cx)
    mask = saliency_region(probe, image, epsilon=args.epsilon, center=center,
                           target_segments=args.segments)
    _write_out(args.out, "mask.pgm", encode_mask_pgm(mask.mask))
    _write_out(args.out, "saliency.json", mask.report_json() + "\n")
    return EXIT_OK


def cmd_erf(args) -> int:
    image = load_image(args.image)
    probe = _build_probe(args, image.shape)
    erf = effective_receptive_field(probe, image)
    peak = float(erf.max())
    plane = erf / peak if peak > 0 else erf
    _write_out(args.out, "erf.pgm", encode_pgm(plane))
    report = json.dumps({"peak_magnitude": peak, "nonzero": int((erf > 0).sum())},
                        sort_keys=True) + "\n"
    _write_out(args.out, "erf.json", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_tuple(text: str, n: int, flag: str, low: int | None = None):
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"{flag} wants {n} comma-separated ints")
    values = tuple(int(v) for v in parts)
    if low is not None and min(values) < low:
        raise argparse.ArgumentTypeError(f"{flag} values must be >= {low}, got {text}")
    return values


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcn2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=lambda s: _int_at_least(s, 1), default=None)
    common.add_argument("--out", default=None, help="output directory")

    def subcommand(name: str) -> argparse.ArgumentParser:
        # no prefix matching: `gradcheck --seed` must not pass for `--seeds`
        return sub.add_parser(name, parents=[common], allow_abbrev=False)

    p = subcommand("gradcheck")
    p.add_argument("--op", default="*", help="op name pattern (fnmatch)")
    p.add_argument("--seeds", type=lambda s: _int_at_least(s, 1), default=20)
    p.add_argument("--tolerance", type=_positive_float, default=1e-3)
    p.set_defaults(fn=cmd_gradcheck)

    p = subcommand("bench")
    p.add_argument("--seed", type=lambda s: _int_at_least(s, 0), default=0)
    p.add_argument("--shape", type=lambda s: _int_tuple(s, 4, "--shape", low=0),
                   default=(1, 64, 128, 128))
    p.add_argument("--cout", type=lambda s: _int_at_least(s, 0), default=64)
    p.add_argument("--kernel", type=lambda s: _int_tuple(s, 2, "--kernel"), default=(3, 3))
    p.add_argument("--repeats", type=lambda s: _int_at_least(s, 1), default=3)
    p.set_defaults(fn=cmd_bench)

    p = subcommand("demo-train")
    p.add_argument("--seed", type=lambda s: _int_at_least(s, 0), default=0)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--task", choices=("translate", "dilate", "scale-jitter"),
                   default="dilate")
    p.add_argument("--dilation", type=_positive_float, default=2.0,
                   help="marker scale of the dilate task; at most (image_size - 3) / 3, "
                        "so that the markers stay inside the image")
    p.add_argument("--task-seed", type=lambda s: _int_at_least(s, 0), default=0)
    p.add_argument("--steps", type=lambda s: _int_at_least(s, 0), default=100)
    p.add_argument("--layers", default=None,
                   help="comma-separated layer kinds overriding the config")
    p.add_argument("--mimic", action="store_true")
    p.add_argument("--mimic-weight", type=_finite_float, default=None)
    p.set_defaults(fn=cmd_demo_train)

    p = subcommand("saliency")
    p.add_argument("--image", required=True)
    p.add_argument("--probe", default="window:0,0,8,8")
    p.add_argument("--model", default=None)
    p.add_argument("--epsilon", type=_finite_float, default=0.1)
    p.add_argument("--center", default=None, help="cy,cx in the image: 0<=cy<=H-1, 0<=cx<=W-1")
    p.add_argument("--segments", type=lambda s: _int_at_least(s, 1), default=100)
    p.set_defaults(fn=cmd_saliency)

    p = subcommand("erf")
    p.add_argument("--image", required=True)
    p.add_argument("--probe", default="window-mean:0,0,8,8")
    p.add_argument("--model", default=None)
    p.set_defaults(fn=cmd_erf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.threads is not None:
        runtime.set_num_threads(args.threads)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ArgumentError, ShapeError, ConfigurationError, CapabilityError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

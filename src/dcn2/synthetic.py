"""Synthetic desk-scale tasks and the toy training harness.

The geometric-variation tasks place smooth marker blobs whose distance from
the image center scales with a dilation factor; recovering the regression
target requires reading features at those markers, so a rigid small-kernel
net is handicapped while a deformable one can move its taps outward. The
`translate` mode moves a single blob around instead, and `scale-jitter`
draws the dilation factor per sample.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .deform_conv import BRANCH_LR_MULTIPLIER, KernelSpec, is_integer
from .deform_roipool import PoolSpec, RoI
from .errors import ArgumentError, ConfigurationError, FormatError, ShapeError
from .mimic import MimicBatch, MimicConfig, TwoBranchModel, mimic_step
from .net import (
    SGD,
    AffineLayer,
    Conv2dLayer,
    DeformConv2dLayer,
    Param,
    ReLULayer,
    RoIPoolLayer,
    Sequential,
    mse_loss,
    roi_readout,
)
from .tensor import load_tensor, save_tensor

LAYER_KINDS = ("regular", "dconv", "mdconv")
TASK_MODES = ("translate", "dilate", "scale-jitter")


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, cause: str):
        super().__init__(f"{cause} at step {step}")
        self.step = step


@contextmanager
def _training_step(step: int):
    """A training step whose numpy overflow or invalid value raises
    TrainingDiverged there, before a later forward's field validation.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise TrainingDiverged(step, f"floating-point error ({exc})") from None


@dataclass(frozen=True)
class ToyNetConfig:
    layers: tuple[str, ...] = ("regular", "mdconv")
    channels: tuple[int, ...] = (8, 8)
    bins: tuple[int, int] = (1, 1)
    pool_samples: int = 2
    head_widths: tuple[int, ...] = ()
    mimic: bool = False
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    branch_lr_mult: float = BRANCH_LR_MULTIPLIER
    image_size: int = 32
    batch_size: int = 8

    def __post_init__(self):
        for kind in self.layers:
            if kind not in LAYER_KINDS:
                raise ArgumentError(f"unknown layer kind {kind!r}")
        if len(self.layers) != len(self.channels):
            raise ShapeError("layers and channels lists must align")
        if not self.layers:
            raise ShapeError("the trunk needs at least one layer")
        widths = (*self.channels, *self.head_widths)
        if not all(is_integer(v) and v >= 1 for v in widths):
            raise ShapeError(f"widths must be integers >= 1, got {widths}")
        if len(self.bins) != 2:
            raise ShapeError(f"bins must be (bins_h, bins_w), got {self.bins}")
        sizes = (self.image_size, self.batch_size)
        if not all(is_integer(v) for v in sizes):
            raise ConfigurationError(f"image_size and batch_size must be integers, got {sizes}")
        if any(v < 1 for v in sizes):
            raise ConfigurationError("image_size and batch_size must be >= 1")
        # written so that NaN fails
        for key, ok, want in (("learning_rate", self.learning_rate > 0, "> 0"),
                              ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
                              ("weight_decay", self.weight_decay >= 0, ">= 0"),
                              ("branch_lr_mult", self.branch_lr_mult >= 0, ">= 0")):
            if not ok:
                raise ConfigurationError(f"{key} must be {want}, got {getattr(self, key)}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ToyNetConfig":
        """Parse a JSON object of config keys; missing keys take their
        defaults. Raises ConfigurationError for an unknown key or a value of
        the wrong JSON type.
        """
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ConfigurationError(f"config must be a JSON object, not {type(obj).__name__}")
        unknown = sorted(set(obj) - set(_JSON_KINDS))
        if unknown:
            raise ConfigurationError(f"unknown config keys {unknown}")
        values = {}
        for key, value in obj.items():
            kind = _JSON_KINDS[key]
            if isinstance(kind, list):
                if not isinstance(value, list):
                    raise ConfigurationError(f"config {key!r} must be a list, not {value!r}")
                values[key] = tuple(_json_scalar(key, v, kind[0]) for v in value)
            else:
                values[key] = _json_scalar(key, value, kind)
        return ToyNetConfig(**values)


# JSON type of each config key; a one-element list marks an array of that type
_JSON_KINDS = {
    "layers": [str], "channels": [int], "bins": [int], "pool_samples": int,
    "head_widths": [int], "mimic": bool, "learning_rate": float, "momentum": float,
    "weight_decay": float, "branch_lr_mult": float, "image_size": int, "batch_size": int,
}


def _json_scalar(key: str, value, kind: type):
    """`value` as `kind`: bools are JSON booleans, ints JSON integers, floats
    finite JSON numbers, strs JSON strings.
    """
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    elif isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ConfigurationError(f"config {key!r} wants a {'finite ' * (kind is float)}"
                             f"JSON {kind.__name__}, not {value!r}")


def _marker_radius(d: float) -> float:
    """Distance of the dilate task's markers from the image center."""
    return 1.0 + 1.5 * d


# the dilations that scale-jitter mode draws from
_JITTER = (1.0, 3.0)
# the largest offset of translate mode's blob from the image center, per axis
_SHIFT = 4.0
# half the side of the detection task's boxes, whose centers it draws at
# least this far inside the image
_BOX_HALF = 5.0


@dataclass(frozen=True)
class SyntheticTask:
    mode: str = "dilate"
    image_size: int = 32
    dilation: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in TASK_MODES:
            raise ArgumentError(f"unknown task mode {self.mode!r}")
        if not is_integer(self.image_size):
            raise ArgumentError(f"image_size must be an integer, got {self.image_size!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ArgumentError(f"seed must be an integer >= 0, got {self.seed!r}")
        # the marker radius and width scale with it; at -2 the width is 0
        if not (math.isfinite(self.dilation) and self.dilation > 0):
            raise ArgumentError(f"dilation must be finite and > 0, got {self.dilation}")
        half = (self.image_size - 1) / 2.0
        if self.mode == "dilate" and _marker_radius(self.dilation) > half:
            raise ArgumentError(
                f"dilation {self.dilation} puts the markers {_marker_radius(self.dilation)} "
                f"pixels from the center, past the {half} of a {self.image_size}x"
                f"{self.image_size} image; the most is (image_size - 3) / 3 = "
                f"{(self.image_size - 3) / 3:.6g}")
        top = _marker_radius(_JITTER[1])
        if self.mode == "scale-jitter" and top > half:
            raise ArgumentError(
                f"image_size {self.image_size} is too small for scale-jitter: its dilations "
                f"up to {_JITTER[1]:g} put the markers {top} pixels from the center, past "
                f"the {half} of a {self.image_size}x{self.image_size} image; the least is "
                f"{2 * top + 1:g}")
        if self.mode == "translate" and _SHIFT > half:
            raise ArgumentError(
                f"image_size {self.image_size} is too small for translate: its blob lies up "
                f"to {_SHIFT:g} pixels from the center, past the {half} of a "
                f"{self.image_size}x{self.image_size} image; the least is {2 * _SHIFT + 1:g}")

    def check_detection(self) -> None:
        """Raise ArgumentError unless the image holds `sample_detection_batch`'s
        boxes: their centers lie at least `_BOX_HALF` pixels inside it.
        """
        least = 2 * _BOX_HALF + 1
        if self.image_size < least:
            raise ArgumentError(
                f"image_size {self.image_size} is too small for the detection task: its "
                f"boxes reach {_BOX_HALF:g} pixels from their centers; the least is {least:g}")

    def _render_markers(self, rng: np.random.Generator, img: np.ndarray, d: float) -> float:
        """Four blobs N/E/S/W of center at a radius scaling with d; the target
        is the antisymmetric amplitude combination. Per-marker width jitter
        confounds the blob tails near the center with the amplitudes, so only
        features sampled out at the markers resolve the target cleanly.
        """
        s = self.image_size
        c = (s - 1) / 2.0
        radius = _marker_radius(d)
        sigma_base = 1.0 + 0.5 * d
        amps = rng.uniform(0.3, 1.0, size=4)
        sigmas = sigma_base * rng.uniform(0.75, 1.25, size=4)
        yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
        spots = ((c - radius, c), (c, c + radius), (c + radius, c), (c, c - radius))
        for amp, sg, (py, px) in zip(amps, sigmas, spots):
            img += amp * np.exp(-((yy - py) ** 2 + (xx - px) ** 2) / (2.0 * sg * sg))
        return float(amps[0] + amps[1] - amps[2] - amps[3])

    def sample_batch(self, rng: np.random.Generator, batch: int):
        """(images (B,1,S,S), targets (B,)) regression batch."""
        s = self.image_size
        images = np.zeros((batch, 1, s, s), dtype=np.float64)
        targets = np.zeros(batch, dtype=np.float64)
        for b in range(batch):
            img = rng.uniform(0.0, 0.02, size=(s, s))
            if self.mode == "translate":
                c = (s - 1) / 2.0
                py, px = c + rng.uniform(-_SHIFT, _SHIFT, size=2)
                amp = rng.uniform(0.3, 1.0)
                yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
                img += amp * np.exp(-((yy - py) ** 2 + (xx - px) ** 2) / (2.0 * 1.5**2))
                targets[b] = amp
            else:
                d = self.dilation if self.mode == "dilate" else rng.uniform(*_JITTER)
                targets[b] = self._render_markers(rng, img, d)
            images[b, 0] = img
        return images, targets

    def sample_detection_batch(self, rng: np.random.Generator, batch: int):
        """(images, proposals, gt_boxes, labels) for the 2-class mimic demo:
        a pair of blobs either horizontal (class 0) or vertical (class 1).
        """
        s = self.image_size
        images = np.zeros((batch, 1, s, s), dtype=np.float64)
        gt_boxes = []
        proposals = []
        labels = np.zeros(batch, dtype=np.int64)
        half = _BOX_HALF
        yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
        for b in range(batch):
            img = rng.uniform(0.0, 0.02, size=(s, s))
            cy, cx = rng.uniform(half, s - 1 - half, size=2)
            cls = int(rng.integers(0, 2))
            gap = 3.0
            if cls == 0:
                spots = ((cy, cx - gap), (cy, cx + gap))
            else:
                spots = ((cy - gap, cx), (cy + gap, cx))
            for py, px in spots:
                img += rng.uniform(0.6, 1.0) * np.exp(
                    -((yy - py) ** 2 + (xx - px) ** 2) / (2.0 * 1.2**2))
            images[b, 0] = img
            labels[b] = cls
            gt_boxes.append(RoI(b, cx - half, cy - half, cx + half, cy + half))
            jy, jx = rng.uniform(-1.0, 1.0, size=2)
            proposals.append(RoI(b, cx - half + jx, cy - half + jy, cx + half + jx, cy + half + jy))
        return images, proposals, gt_boxes, labels


# ---------------------------------------------------------------------------
# toy networks
# ---------------------------------------------------------------------------

def _build_trunk(cfg: ToyNetConfig, c_in: int, rng: np.random.Generator) -> Sequential:
    layers = []
    spec = KernelSpec(3, 3, pad=(1, 1))
    prev = c_in
    for idx, (kind, width) in enumerate(zip(cfg.layers, cfg.channels)):
        name = f"layer{idx}.{kind}"
        if kind == "regular":
            layers.append(Conv2dLayer(prev, width, spec, rng, name=name))
        else:
            layer = DeformConv2dLayer(prev, width, spec, rng,
                                      modulated=(kind == "mdconv"), name=name)
            layer.branch_weight.lr_mult = cfg.branch_lr_mult
            layer.branch_bias.lr_mult = cfg.branch_lr_mult
            layers.append(layer)
        layers.append(ReLULayer())
        prev = width
    return Sequential(layers)


def _fc_stack(feat: int, widths, rng: np.random.Generator, prefix: str):
    """Affine+ReLU layers of `widths` over `feat` inputs, and the last width.
    Each affine is named by `prefix` and its index in the list (`head0`,
    `head2`, ...), the names that model files key on.
    """
    layers = []
    for width in widths:
        layers += [AffineLayer(feat, width, rng, name=f"{prefix}{len(layers)}"), ReLULayer()]
        feat = width
    return layers, feat


def deformable_layers(trunk: Sequential) -> list[DeformConv2dLayer]:
    return [l for l in trunk.layers if isinstance(l, DeformConv2dLayer)]


class ToyRegressionNet:
    """Trunk convs, aligned pooling over a fixed centered readout box, and an
    affine head producing one value per image.
    """

    def __init__(self, cfg: ToyNetConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.trunk = _build_trunk(cfg, 1, rng)
        self.pool = RoIPoolLayer(cfg.channels[-1], PoolSpec(*cfg.bins, cfg.pool_samples), rng)
        head, feat = _fc_stack(cfg.channels[-1] * cfg.bins[0] * cfg.bins[1], cfg.head_widths,
                               rng, "head")
        self.head = Sequential(head + [AffineLayer(feat, 1, rng, name="head_out")])

    def params(self) -> list[Param]:
        return self.trunk.params() + self.pool.params() + self.head.params()

    def readout_rois(self, batch: int) -> list[RoI]:
        c = (self.cfg.image_size - 1) / 2.0
        return [RoI(b, c - 1.0, c - 1.0, c + 1.0, c + 1.0) for b in range(batch)]

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Predictions: the head over `roi_readout`, so the trunk computes
        only where the readout reads.
        """
        rows = roi_readout(self.trunk, self.pool, images, self.readout_rois(len(images)))
        return self.head.forward(rows)[:, 0]

    def backward(self, grad_pred: np.ndarray) -> None:
        g = self.head.backward(grad_pred[:, None])
        g = self.pool.backward(g)
        self.trunk.backward(g, input_grad=False)  # nothing reads the image gradient


_EVAL_BATCH = 64


def run_toy_training(cfg: ToyNetConfig, task: SyntheticTask, steps: int,
                     seed: int) -> tuple[dict, ToyRegressionNet]:
    """Train the regression net with SGD and report metrics: per-step loss,
    final eval loss, and mean |dp| per deformable layer on the eval batch of
    `_EVAL_BATCH` images.
    Every forward, training and eval, computes the trunk only where the
    readout reads (see `ToyRegressionNet.forward`); mean |dp| is taken over
    the whole field that `DeformConv2dLayer.mean_abs_offset` recomputes from
    the eval forward's recorded input with the trained branch parameters.
    A step, or the eval (as step `steps`), that overflows or makes an invalid
    value raises TrainingDiverged.
    """
    rng = np.random.default_rng([seed, task.seed])
    net = ToyRegressionNet(cfg, rng)
    opt = SGD(net.params(), lr=cfg.learning_rate, momentum=cfg.momentum,
              weight_decay=cfg.weight_decay)
    losses = []
    for step in range(steps):
        with _training_step(step):
            images, targets = task.sample_batch(rng, cfg.batch_size)
            pred = net.forward(images)
            loss, grad = mse_loss(pred, targets)
            if not np.isfinite(loss):
                raise TrainingDiverged(step, f"non-finite loss {loss}")
            opt.zero_grad()
            net.backward(grad)
            opt.step()
        losses.append(loss)

    eval_rng = np.random.default_rng([seed, task.seed, 777])
    images, targets = task.sample_batch(eval_rng, _EVAL_BATCH)
    with _training_step(steps):
        pred = net.forward(images)
        eval_loss, _ = mse_loss(pred, targets)
        offsets = {
            layer.weight.name.rsplit(".", 1)[0]: layer.mean_abs_offset()
            for layer in deformable_layers(net.trunk)
        }
    metrics = {
        "task": {"mode": task.mode, "dilation": task.dilation,
                 "image_size": task.image_size, "seed": task.seed},
        "seed": seed,
        "steps": steps,
        "per_step_loss": losses,
        "final_eval_loss": eval_loss,
        "mean_abs_offset": offsets,
    }
    return metrics, net


def build_two_branch_model(cfg: ToyNetConfig, n_classes: int,
                           rng: np.random.Generator) -> TwoBranchModel:
    """Shared trunk + pooling + fc stack, with distinct class heads over
    n_classes foreground categories plus background.
    """
    backbone = _build_trunk(cfg, 1, rng)
    pool = RoIPoolLayer(cfg.channels[-1], PoolSpec(2, 2, cfg.pool_samples), rng)
    fc_layers, feat = _fc_stack(cfg.channels[-1] * 4, cfg.head_widths or (32,), rng, "fc")
    fc = Sequential(fc_layers)
    frcnn_head = AffineLayer(feat, n_classes + 1, rng, name="frcnn_head")
    rcnn_head = AffineLayer(feat, n_classes + 1, rng, name="rcnn_head")
    return TwoBranchModel(backbone, pool, fc, frcnn_head, rcnn_head)


def run_mimic_training(cfg: ToyNetConfig, task: SyntheticTask, steps: int, seed: int,
                       mimic_cfg: MimicConfig) -> tuple[dict, TwoBranchModel]:
    """Train the two-branch classifier; mimic/rcnn losses enter per mimic_cfg.
    A task whose images cannot hold the detection boxes raises ArgumentError.
    """
    task.check_detection()
    rng = np.random.default_rng([seed, task.seed, 13])
    model = build_two_branch_model(cfg, n_classes=2, rng=rng)
    opt = SGD(model.params(), lr=cfg.learning_rate, momentum=cfg.momentum,
              weight_decay=cfg.weight_decay)
    history = []
    for step in range(steps):
        with _training_step(step):
            images, proposals, gt_boxes, labels = task.sample_detection_batch(rng, cfg.batch_size)
            batch = MimicBatch.build(images, proposals, gt_boxes, labels, mimic_cfg, rng)
            opt.zero_grad()
            total, parts = mimic_step(model, images, batch, mimic_cfg)
            if not np.isfinite(total):
                raise TrainingDiverged(step, f"non-finite loss {total}")
            opt.step()
        history.append({"total": total, **parts})
    metrics = {
        "seed": seed,
        "steps": steps,
        "mimic": {"weight": mimic_cfg.mimic_weight, "rcnn_cls_weight": mimic_cfg.rcnn_cls_weight},
        "history": history,
    }
    return metrics, model


# ---------------------------------------------------------------------------
# model files: config JSON plus one .dcnt tensor per parameter
# ---------------------------------------------------------------------------

def save_model(net: ToyRegressionNet, out_dir) -> None:
    """Write `model.json` (config plus parameter file names) and one `.dcnt`
    file per parameter, its value reshaped to 4-D with leading unit extents.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"config": json.loads(net.cfg.to_json()), "params": {}}
    for i, p in enumerate(net.params()):
        fname = f"param{i:03d}.dcnt"
        save_tensor(p.value.reshape((1,) * (4 - p.value.ndim) + p.value.shape),
                    os.path.join(out_dir, fname))
        manifest["params"][p.name] = fname
    with open(os.path.join(out_dir, "model.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def load_model(model_dir) -> ToyRegressionNet:
    """Rebuild a net written by `save_model`. A malformed manifest or
    parameter file raises FormatError naming the file.
    """
    path = os.path.join(model_dir, "model.json")
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        manifest = json.loads(raw.decode("ascii"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII", exc.start) from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not JSON: {exc.msg}", exc.pos) from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("params"), dict)):
        raise FormatError(f'{path}: want an object with "config" and "params" objects')
    try:
        cfg = ToyNetConfig.from_json(json.dumps(manifest["config"]))
    except (ArgumentError, ConfigurationError, ShapeError) as exc:
        raise FormatError(f"{path}: {exc}") from None
    net = ToyRegressionNet(cfg, np.random.default_rng(0))
    by_name = {p.name: p for p in net.params()}
    files = manifest["params"]
    if set(by_name) != set(files) or not all(isinstance(f, str) for f in files.values()):
        raise FormatError(f"{path}: want one file name per parameter of the configured network")
    for name, fname in files.items():
        param_path = os.path.join(model_dir, fname)
        try:
            arr = load_tensor(param_path)
        except FormatError as exc:
            raise FormatError(f"{param_path}: {exc}") from None
        p = by_name[name]
        if arr.size != p.value.size:
            raise FormatError(f"{param_path}: {arr.size} values, parameter {name!r} "
                              f"of shape {p.value.shape} needs {p.value.size}")
        if not np.isfinite(arr).all():
            raise FormatError(f"{param_path}: non-finite value in parameter {name!r}")
        p.value[...] = arr.reshape(p.value.shape)
    return net

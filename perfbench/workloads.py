"""The three benchmark workloads.

Each workload is built from its seed alone (`__init__`), hands the library
only inputs generated from that seed (`next_inputs`), runs one closed-loop op
per `op` call, and checks a slice of its kernel calls against the package's
reference kernels once per run (`check`). An op raises `OpFailed` when its
output is wrong; any other exception it raises also counts as a failed op.

Why these three: `mimic_train` is small and per-call-overhead bound,
`detect_train` is large and bandwidth bound and the only one that runs
deformable RoI pooling and its branch, and `analyze` is forward-only batch-1
use of the kernels next to SLIC. A change that helps one of them at the
expense of another shows up as a pair.
"""

from __future__ import annotations

import numpy as np

from dcn2 import oracle
from dcn2.deform_conv import (
    ConvWeights,
    KernelSpec,
    OffsetModulationField,
    mdconv_backward,
    mdconv_backward_optimized,
    mdconv_forward,
    mdconv_forward_optimized,
)
from dcn2.deform_roipool import PoolSpec, RoI, aligned_pool_forward
from dcn2.mimic import MimicBatch, MimicConfig, mimic_step
from dcn2.net import (
    SGD,
    AffineLayer,
    DeformConv2dLayer,
    ReLULayer,
    RoIPoolLayer,
    Sequential,
    softmax_cross_entropy,
)
from dcn2.support import effective_receptive_field, network_probe, saliency_region
from dcn2.synthetic import SyntheticTask, ToyNetConfig, ToyRegressionNet, build_two_branch_model

# the test suite's agreement bound between optimized and reference kernels
TOLERANCE = 1e-5


class OpFailed(RuntimeError):
    """An op produced a non-finite or otherwise wrong result."""


def _finite(name: str, value) -> None:
    if not np.isfinite(value).all():
        raise OpFailed(f"non-finite {name}")


def _rel_err(got, want) -> float:
    """max |got - want| / max(1, max |want|): the suite's absolute 1e-5 bound
    for unit-scale values, relative for larger ones (float32 gradients).
    """
    want = np.asarray(want, dtype=np.float64)
    diff = np.abs(np.asarray(got, dtype=np.float64) - want).max(initial=0.0)
    return float(diff / max(1.0, np.abs(want).max(initial=0.0)))


def check_mdconv_slice(layer: DeformConv2dLayer, rng: np.random.Generator) -> dict[str, float]:
    """Optimized vs reference forward and backward on an 8x8, 4-channel slice
    of the layer's last recorded call (input, field and weights sliced alike).
    """
    x, fld = layer.recorded_state()
    _, _, h, w = x.shape
    s = min(8, h, w)
    r0, c0 = (h - s) // 2, (w - s) // 2
    ci = min(4, x.shape[1])
    co = min(4, layer.weight.value.shape[0])
    rows, cols = slice(r0, r0 + s), slice(c0, c0 + s)
    xs = np.ascontiguousarray(x[:1, :ci, rows, cols])
    fs = OffsetModulationField(fld.offsets[:1, :, rows, cols], fld.modulation[:1, :, rows, cols])
    ws = ConvWeights(layer.weight.value[:co, :ci], layer.bias.value[:co])
    errs = {"mdconv_forward": _rel_err(mdconv_forward_optimized(xs, ws, layer.spec, fs),
                                       mdconv_forward(xs, ws, layer.spec, fs))}
    up = rng.standard_normal((1, co, s, s)).astype(xs.dtype)
    got = mdconv_backward_optimized(xs, ws, layer.spec, fs, up)
    want = mdconv_backward(xs, ws, layer.spec, fs, up)
    errs["mdconv_backward"] = max(_rel_err(a, b) for a, b in zip(got, want))
    return errs


def check_pool_slice(pool: RoIPoolLayer) -> dict[str, float]:
    """Aligned pooling of the layer's last call, first 4 RoIs and channels,
    against the naive oracle.
    """
    x, rois = pool.recorded_state()[:2]
    rois = rois[:4]
    xs = x[:, :4]
    spec = pool.spec
    got = aligned_pool_forward(xs, rois, spec)
    want = oracle.aligned_roipool_oracle(xs, rois, spec.bins_h, spec.bins_w, spec.samples)
    return {"aligned_roipool": _rel_err(got, want)}


class MimicTrain:
    """`demo-train --mimic` defaults: ToyNetConfig() (regular + mdconv, 8
    channels, 32x32, batch 8), 32x32 patches, sample_detection_batch data.
    One op is one training step: sample, build the positive batch, zero
    grads, mimic_step, SGD step.
    """

    name = "mimic_train"

    def __init__(self, seed: int):
        self.cfg = ToyNetConfig()
        self.task = SyntheticTask(mode="dilate", image_size=self.cfg.image_size)
        self.mimic_cfg = MimicConfig(patch_size=(self.cfg.image_size, self.cfg.image_size))
        self.rng = np.random.default_rng(seed)
        self.model = build_two_branch_model(self.cfg, n_classes=2, rng=self.rng)
        self.opt = SGD(self.model.params(), lr=self.cfg.learning_rate,
                       momentum=self.cfg.momentum, weight_decay=self.cfg.weight_decay)
        self.check_rng = np.random.default_rng([seed, 1])

    def describe(self) -> str:
        c = self.cfg
        return (f"ToyNetConfig layers={','.join(c.layers)} channels={c.channels} "
                f"image={c.image_size} batch={c.batch_size}; patch={self.mimic_cfg.patch_size}")

    def next_inputs(self):
        return None  # the step draws its own batch: data sampling is part of training

    def op(self, _inputs) -> None:
        images, proposals, gt_boxes, labels = self.task.sample_detection_batch(
            self.rng, self.cfg.batch_size)
        batch = MimicBatch.build(images, proposals, gt_boxes, labels, self.mimic_cfg, self.rng)
        self.opt.zero_grad()
        total, parts = mimic_step(self.model, images, batch, self.mimic_cfg)
        _finite("loss", [total, *parts.values()])
        self.opt.step()

    def check(self) -> dict[str, float]:
        mdconv = next(l for l in self.model.backbone.layers if isinstance(l, DeformConv2dLayer))
        return {**check_mdconv_slice(mdconv, self.check_rng), **check_pool_slice(self.model.pool)}


class DetectTrain:
    """Detection head on a fixed seeded 1x64x48x80 feature map: deformable
    conv 64->64 3x3 (non-zero offset branch), ReLU, deformable RoI pooling
    (7x7 bins, 2x2 samples, branch width 256) over 128 seeded proposals, fc
    to 8 classes, softmax cross-entropy, backward, SGD. One op is one step.
    """

    name = "detect_train"
    SHAPE = (1, 64, 48, 80)
    ROIS = 128
    CLASSES = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.rng = rng
        c = self.SHAPE[1]
        self.feat = rng.standard_normal(self.SHAPE).astype(np.float32)
        self.conv = DeformConv2dLayer(c, c, KernelSpec(3, 3, pad=(1, 1)), rng, name="det.conv")
        bw = self.conv.branch_weight.value
        bw[...] = rng.normal(0.0, 0.01, bw.shape)
        self.relu = ReLULayer()
        self.pool = RoIPoolLayer(c, PoolSpec(7, 7, 2), rng, deformable=True, hidden=256,
                                 name="det.pool")
        # a non-zero output fc moves the bins from the first step on
        ow = self.pool.out_w.value
        ow[...] = rng.normal(0.0, 0.01, ow.shape)
        self.head = AffineLayer(c * 49, self.CLASSES, rng, name="det.head")
        params = self.conv.params() + self.pool.params() + self.head.params()
        self.opt = SGD(params, lr=0.01)
        self.check_rng = np.random.default_rng([seed, 1])

    def describe(self) -> str:
        return (f"feature map {'x'.join(map(str, self.SHAPE))} float32, mdconv 64->64 3x3, "
                f"mdpool 7x7x(2x2) branch 256, {self.ROIS} RoIs, {self.CLASSES} classes")

    def next_inputs(self):
        _, _, h, w = self.SHAPE
        rng = self.rng
        size = rng.uniform(8.0, 40.0, size=(self.ROIS, 2))
        cy = rng.uniform(0.0, h - 1.0, size=self.ROIS)
        cx = rng.uniform(0.0, w - 1.0, size=self.ROIS)
        y1 = np.clip(cy - size[:, 0] / 2, 0.0, h - 1.0)
        y2 = np.clip(cy + size[:, 0] / 2, 0.0, h - 1.0)
        x1 = np.clip(cx - size[:, 1] / 2, 0.0, w - 1.0)
        x2 = np.clip(cx + size[:, 1] / 2, 0.0, w - 1.0)
        rois = [RoI(0, float(a), float(b), float(c), float(d))
                for a, b, c, d in zip(x1, y1, x2, y2)]
        labels = rng.integers(0, self.CLASSES, size=self.ROIS)
        return rois, labels

    def op(self, inputs) -> None:
        rois, labels = inputs
        self.opt.zero_grad()
        y = self.relu.forward(self.conv.forward(self.feat))
        pooled = self.pool.forward(y, rois)
        logits = self.head.forward(pooled.reshape(len(rois), -1))
        loss, grad = softmax_cross_entropy(logits, labels)
        _finite("loss", loss)
        grad = self.head.backward(grad)
        grad = self.pool.backward(grad.reshape(pooled.shape))
        _finite("feature gradient", self.conv.backward(self.relu.backward(grad)))
        self.opt.step()

    def check(self) -> dict[str, float]:
        return {**check_mdconv_slice(self.conv, self.check_rng), **check_pool_slice(self.pool)}


class Analyze:
    """Spatial-support analysis of seeded 48x48 SyntheticTask images through
    a fixed regular + mdconv trunk with a non-zero offset branch:
    effective_receptive_field, then saliency_region with a network probe on
    the mdconv output at the image center (150 SLIC segments, epsilon 0.01).
    One op is one image.
    """

    name = "analyze"
    SIZE = 48
    SEGMENTS = 150
    EPSILON = 0.01
    # the trunk is part of the workload, not of its inputs: the probe-call
    # count per image depends mostly on the trunk (18 to 23 across trunk
    # seeds), so a per-seed trunk would make the op cost differ by seed
    TRUNK_SEED = 0

    def __init__(self, seed: int):
        trunk_rng = np.random.default_rng(self.TRUNK_SEED)
        net = ToyRegressionNet(ToyNetConfig(image_size=self.SIZE), trunk_rng)
        self.mdconv = next(l for l in net.trunk.layers if isinstance(l, DeformConv2dLayer))
        bw = self.mdconv.branch_weight.value
        bw[...] = trunk_rng.normal(0.0, 0.05, bw.shape)
        # the node is the mdconv layer's output before its ReLU: a post-ReLU
        # node can be the zero vector, and saliency_region then raises
        # ConvergenceError even though the full image reproduces it exactly
        node = Sequential(net.trunk.layers[:-1])
        self.probe = network_probe(node, self.SIZE // 2, self.SIZE // 2)
        self.task = SyntheticTask(mode="dilate", image_size=self.SIZE)
        self.rng = np.random.default_rng(seed)
        self.first = None  # (image, erf, mask) of the first image analyzed
        self.check_rng = np.random.default_rng([seed, 1])

    def describe(self) -> str:
        return (f"{self.SIZE}x{self.SIZE} images, trunk regular+mdconv 8 channels, "
                f"probe at center, {self.SEGMENTS} segments, epsilon {self.EPSILON}")

    def next_inputs(self):
        images, _ = self.task.sample_batch(self.rng, 1)
        return images[0]

    def _analyze(self, image):
        erf = effective_receptive_field(self.probe, image)
        _finite("receptive field", erf)
        mask = saliency_region(self.probe, image, epsilon=self.EPSILON,
                               target_segments=self.SEGMENTS)
        if not mask.achieved_error < self.EPSILON:
            raise OpFailed(f"saliency error {mask.achieved_error} >= {self.EPSILON}")
        return erf, mask

    def op(self, image) -> None:
        erf, mask = self._analyze(image)
        if self.first is None:
            self.first = (image, erf, mask)

    def check(self) -> dict[str, float]:
        """Slice check of the trunk's mdconv, and an exact re-run of the
        first image: probe calls, mask and receptive field must repeat.
        """
        errs = check_mdconv_slice(self.mdconv, self.check_rng)
        image, erf, mask = self.first
        erf2, mask2 = self._analyze(image)
        same = (mask2.probe_calls == mask.probe_calls
                and np.array_equal(mask2.mask, mask.mask) and np.array_equal(erf2, erf))
        errs["analyze_repeat"] = 0.0 if same else float("inf")
        return errs


WORKLOADS = {w.name: w for w in (MimicTrain, DetectTrain, Analyze)}

"""Feature-mimicking loss and the miniature two-branch training wiring.

The per-pair loss is 1 - cos(a, b) summed over the sampled positive RoIs.
A detection-flavored trunk (backbone convs, RoI pooling, fc stack) is shared
between the main branch, which pools RoIs from full-image features, and an
auxiliary branch that runs the backbone on cropped, resized RoI patches.
Classification heads stay distinct. The two auxiliary losses (mimic and
patch-branch cross-entropy) enter the total at 0.1 weight each; in inference
only the main branch runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .deform_conv import is_integer
from .deform_roipool import RoI, _roi_planes
from .errors import ArgumentError, ConfigurationError, ShapeError
from .net import Param, RoIPoolLayer, Sequential, roi_readout, softmax_cross_entropy
from .sampling import bilinear_corner_gather, pixel_map, pixel_rows, sampling_matrix

# norms below this are treated as zero vectors by the cosine guard
_NORM_GUARD = 1e-30

# the positive threshold on a proposal's best ground-truth IoU, and Ω per image
POSITIVE_IOU = 0.5
OMEGA_SIZE = 32

def _cos_parts(a: np.ndarray, b: np.ndarray):
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ShapeError(f"feature dims differ: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ArgumentError("feature vectors must be finite")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    return a, b, na, nb


def cosine_mimic_loss(a, b) -> float:
    """1 - cos(a, b); a zero-norm vector makes the pair contribute loss 1
    (cosine treated as 0).
    """
    a, b, na, nb = _cos_parts(a, b)
    if na < _NORM_GUARD or nb < _NORM_GUARD:
        return 1.0
    if np.array_equal(a, b):
        # cos(a, a) = 1 exactly; avoid the norm-product rounding
        return 0.0
    c = float(a @ b) / (na * nb)
    return 1.0 - max(-1.0, min(1.0, c))


def cosine_mimic_backward(a, b, upstream: float = 1.0):
    """Analytic gradients (grad_a, grad_b) of upstream * (1 - cos(a, b)).

    grad_a is orthogonal to a (cosine is scale invariant); zero-norm vectors
    receive zero gradient via the guard.
    """
    a, b, na, nb = _cos_parts(a, b)
    if na < _NORM_GUARD or nb < _NORM_GUARD:
        return np.zeros_like(a), np.zeros_like(b)
    if np.array_equal(a, b):
        # exact minimum: the gradient vanishes identically
        return np.zeros_like(a), np.zeros_like(b)
    c = float(a @ b) / (na * nb)
    ga = -(b / (na * nb) - c * a / (na * na)) * upstream
    gb = -(a / (na * nb) - c * b / (nb * nb)) * upstream
    return ga, gb


# ---------------------------------------------------------------------------
# patch cropping
# ---------------------------------------------------------------------------

def crop_resize_patch(images, rois: list[RoI], out_hw: tuple[int, int]) -> np.ndarray:
    """(R, C, out_h, out_w) patches: each RoI's rectangle (clipped to the
    image) bilinearly resized.

    `images` is an (N, C, H, W) stack from which each RoI's batch element is
    taken. An RoI whose batch index lies outside the stack, or that misses
    the image entirely (a zero-area crop), raises ArgumentError. Every RoI's
    separable grid samples through one sparse bilinear matrix over the whole
    stack, in float64; an empty list gives R = 0.
    """
    stack = np.asarray(images)
    if stack.ndim != 4:
        raise ShapeError(f"expected (N,C,H,W) images, got shape {stack.shape}")
    n, c, h, w = stack.shape
    planes = _roi_planes(rois, n, h * w)
    rects = []
    for roi in rois:
        rect = (max(roi.y1, 0.0), max(roi.x1, 0.0), min(roi.y2, h - 1.0), min(roi.x2, w - 1.0))
        if rect[2] < rect[0] or rect[3] < rect[1]:
            raise ArgumentError(f"RoI {roi} clips to zero area on a {h}x{w} image")
        rects.append(rect)
    if not (len(out_hw) == 2 and all(is_integer(v) and v >= 1 for v in out_hw)):
        raise ArgumentError(f"patch size {out_hw} must be two integers >= 1")
    out_h, out_w = out_hw
    # (R, 1) columns of the clipped rectangles
    y1, x1, y2, x2 = np.array(rects, dtype=np.float64).reshape(-1, 4).T[:, :, None]
    # crop extent in pixel-center space; edges inclusive. The grid clamps to
    # the crop rectangle so upsampled borders replicate instead of dimming.
    eh = y2 - y1 + 1.0
    ew = x2 - x1 + 1.0
    ys = np.clip(y1 + (np.arange(out_h, dtype=np.float64) + 0.5) * (eh / out_h) - 0.5, y1, y2)
    xs = np.clip(x1 + (np.arange(out_w, dtype=np.float64) + 0.5) * (ew / out_w) - 0.5, x1, x2)
    cols, weights = bilinear_corner_gather(ys[:, :, None], xs[:, None, :], h, w,
                                           flat_offset=planes)
    out = sampling_matrix(cols, weights, n * h * w) @ pixel_rows(stack, dtype=np.float64)
    return pixel_map(out, None, (len(rois), c, out_h, out_w), stack.dtype)


# ---------------------------------------------------------------------------
# batch construction: positive RoIs only
# ---------------------------------------------------------------------------

def box_iou(a: RoI, b: RoI) -> float:
    """Intersection over union of two continuous boxes."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    area_a = a.width * a.height
    area_b = b.width * b.height
    denom = area_a + area_b - inter
    return inter / denom if denom > 0 else 0.0


@dataclass
class MimicConfig:
    mimic_weight: float = 0.1
    rcnn_cls_weight: float = 0.1
    patch_size: tuple[int, int] = (32, 32)

    def __post_init__(self):
        size = self.patch_size
        if not (isinstance(size, (tuple, list)) and len(size) == 2
                and all(is_integer(v) and v >= 1 for v in size)):
            raise ConfigurationError(f"patch_size must be two integers >= 1, got {size!r}")
        if not (self.mimic_weight >= 0 and self.rcnn_cls_weight >= 0):  # NaN fails too
            raise ConfigurationError(f"loss weights must be >= 0, got mimic_weight "
                                     f"{self.mimic_weight}, rcnn_cls_weight {self.rcnn_cls_weight}")


@dataclass
class MimicBatch:
    """The sampled positive set: RoIs, their cropped patches and class labels."""

    rois: list[RoI]
    patches: np.ndarray
    labels: np.ndarray

    @staticmethod
    def build(images, proposals: list[RoI], gt_boxes: list[RoI], gt_labels,
              cfg: MimicConfig, rng: np.random.Generator) -> "MimicBatch":
        """Keep proposals whose best ground-truth IoU reaches POSITIVE_IOU,
        sample at most OMEGA_SIZE per image in proposal order, and crop+resize
        their patches in one `crop_resize_patch` call over the kept list.
        `gt_labels` holds one label per gt box (1-D), else ShapeError.
        """
        gt_labels = np.asarray(gt_labels)
        if gt_labels.shape != (len(gt_boxes),):
            raise ShapeError(f"gt_labels of shape {gt_labels.shape} for {len(gt_boxes)} gt boxes")
        positives = []
        for p in proposals:
            best = -1.0
            best_g = -1
            for gi, g in enumerate(gt_boxes):
                if g.batch_index != p.batch_index:
                    continue
                v = box_iou(p, g)
                if v > best:
                    best, best_g = v, gi
            if best >= POSITIVE_IOU:
                positives.append((p, int(gt_labels[best_g])))
        keep = []
        for b in sorted({p.batch_index for p, _ in positives}):
            mine = [i for i, (p, _) in enumerate(positives) if p.batch_index == b]
            if len(mine) > OMEGA_SIZE:
                mine = rng.choice(mine, size=OMEGA_SIZE, replace=False).tolist()
            keep += mine
        positives = [positives[i] for i in sorted(keep)]
        rois = [p for p, _ in positives]
        labels = np.array([l for _, l in positives], dtype=np.int64)
        return MimicBatch(rois, crop_resize_patch(images, rois, cfg.patch_size), labels)

    def __len__(self) -> int:
        return len(self.rois)


# ---------------------------------------------------------------------------
# two-branch model
# ---------------------------------------------------------------------------

class TwoBranchModel:
    """Shared trunk (backbone, RoI pooling, fc stack) with two distinct
    classification heads: `frcnn_head` for the full-image branch and
    `rcnn_head` for the patch branch.
    """

    def __init__(self, backbone: Sequential, pool: RoIPoolLayer, fc: Sequential,
                 frcnn_head, rcnn_head):
        self.backbone = backbone
        self.pool = pool
        self.fc = fc
        self.frcnn_head = frcnn_head
        self.rcnn_head = rcnn_head

    def shared_params(self) -> list[Param]:
        return self.backbone.params() + self.pool.params() + self.fc.params()

    def params(self) -> list[Param]:
        return self.shared_params() + self.frcnn_head.params() + self.rcnn_head.params()

    def roi_features(self, images, rois: list[RoI]) -> np.ndarray:
        """(R, D) trunk features, the fc stack over `roi_readout`; caches
        stay valid for one backward pass.
        """
        return self.fc.forward(roi_readout(self.backbone, self.pool, images, rois))

    def roi_features_backward(self, grad_feat: np.ndarray) -> None:
        g = self.fc.backward(grad_feat)
        g = self.pool.backward(g)
        self.backbone.backward(g, input_grad=False)  # nothing reads the image gradient

    def infer(self, images, rois: list[RoI]) -> np.ndarray:
        """Inference runs the main branch only: trunk features -> class logits."""
        return self.frcnn_head.forward(self.roi_features(images, rois))

    def patch_branch(self) -> "TwoBranchModel":
        """This model on shallow copies of the trunk layers: they hold the
        same Params, so gradients and updates land on the shared trunk, but
        keep their own forward state. Safe because every layer rebinds its
        state attributes (`_x`, `_record`, `_cache`, `_mask`) in `forward`
        and never mutates them in place, nor does a backward mutate what
        they hold.
        """
        return TwoBranchModel(Sequential(map(copy.copy, self.backbone.layers)),
                              copy.copy(self.pool), Sequential(map(copy.copy, self.fc.layers)),
                              self.frcnn_head, self.rcnn_head)


def _whole_patch_rois(count: int, patch_hw: tuple[int, int]) -> list[RoI]:
    h, w = patch_hw
    return [RoI(i, 0.0, 0.0, w - 1.0, h - 1.0) for i in range(count)]


def mimic_step(model: TwoBranchModel, images, batch: MimicBatch, cfg: MimicConfig):
    """One full forward/backward of the two-branch wiring.

    Returns (total_loss, parts) where parts holds the unweighted pieces:
    {"task": .., "mimic": .., "rcnn_cls": ..}. Parameter gradients accumulate
    into the shared trunk from both branches, the main branch's first; each
    branch runs the trunk forward and backward once, the patch branch on
    `model.patch_branch()`. Auxiliary weights of 0 skip the patch branch.
    """
    if model.frcnn_head is model.rcnn_head:
        raise ConfigurationError("classification heads must be distinct objects")
    shared_ids = {id(p) for p in model.shared_params()}
    for p in model.frcnn_head.params() + model.rcnn_head.params():
        if id(p) in shared_ids:
            raise ConfigurationError("classification head parameters must not alias the trunk")
    if len(batch) == 0:
        return 0.0, {"task": 0.0, "mimic": 0.0, "rcnn_cls": 0.0}

    aux_active = cfg.mimic_weight != 0.0 or cfg.rcnn_cls_weight != 0.0

    f_frcnn = model.roi_features(images, batch.rois)
    task_logits = model.frcnn_head.forward(f_frcnn)
    task_loss, g_task_logits = softmax_cross_entropy(task_logits, batch.labels)
    g_f_frcnn = model.frcnn_head.backward(g_task_logits)

    mimic_loss = 0.0
    rcnn_loss = 0.0
    if aux_active:
        patch = model.patch_branch()
        f_rcnn = patch.roi_features(batch.patches, _whole_patch_rois(len(batch), cfg.patch_size))
        rcnn_logits = patch.rcnn_head.forward(f_rcnn)
        rcnn_loss, g_rcnn_logits = softmax_cross_entropy(rcnn_logits, batch.labels)
        g_f_rcnn = np.zeros_like(f_rcnn)
        for i in range(len(batch)):  # the mimic loss sums its pairs in RoI order
            mimic_loss += cosine_mimic_loss(f_rcnn[i], f_frcnn[i])
            ga, gb = cosine_mimic_backward(f_rcnn[i], f_frcnn[i], cfg.mimic_weight)
            g_f_rcnn[i] += ga
            g_f_frcnn[i] += gb
    model.roi_features_backward(g_f_frcnn)
    if aux_active:
        g_f_rcnn += patch.rcnn_head.backward(cfg.rcnn_cls_weight * g_rcnn_logits)
        patch.roi_features_backward(g_f_rcnn)

    total = task_loss + cfg.mimic_weight * mimic_loss + cfg.rcnn_cls_weight * rcnn_loss
    return total, {"task": task_loss, "mimic": mimic_loss, "rcnn_cls": rcnn_loss}

"""Independent naive reference implementations and the finite-difference
gradient oracle.

Everything here is written loop-by-loop from the operator definitions and
deliberately imports none of the optimized kernel modules, so agreement
between the two sides is evidence rather than tautology. Keep it that way:
kernels may be compared against these functions only from the test harness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError


class OracleError(RuntimeError):
    """The oracle itself hit something it cannot evaluate (non-finite f)."""


# ---------------------------------------------------------------------------
# naive bilinear helper (local on purpose; see module docstring)
# ---------------------------------------------------------------------------

def _bilerp(plane: np.ndarray, y: float, x: float) -> float:
    h, w = plane.shape
    y0 = math.floor(y)
    x0 = math.floor(x)
    ly = y - y0
    lx = x - x0
    total = 0.0
    for dy, wy in ((0, 1.0 - ly), (1, ly)):
        for dx, wx in ((0, 1.0 - lx), (1, lx)):
            iy, ix = y0 + dy, x0 + dx
            if 0 <= iy < h and 0 <= ix < w:
                total += wy * wx * float(plane[iy, ix])
    return total


def _tap_offsets(kernel_h: int, kernel_w: int, dil_h: int, dil_w: int):
    """Row-major pre-specified taps starting at (-floor(kh/2)*dil, -floor(kw/2)*dil)."""
    taps = []
    for u in range(kernel_h):
        for v in range(kernel_w):
            taps.append(((u - kernel_h // 2) * dil_h, (v - kernel_w // 2) * dil_w))
    return taps


def _conv_geometry(spec, h: int, w: int):
    kh, kw = spec.kernel_h, spec.kernel_w
    sh, sw = spec.stride
    ph, pw = spec.pad
    dh, dw = spec.dilation
    h_out = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    w_out = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1
    return kh, kw, sh, sw, ph, pw, dh, dw, h_out, w_out


# ---------------------------------------------------------------------------
# reference operators
# ---------------------------------------------------------------------------

def dense_conv_oracle(x: np.ndarray, w: np.ndarray, spec, bias: np.ndarray | None = None) -> np.ndarray:
    """Textbook zero-padded strided dilated convolution, plain loops."""
    x = np.asarray(x)
    w = np.asarray(w)
    n, c_in, h, win = x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in_w != c_in or kh != spec.kernel_h or kw != spec.kernel_w:
        raise ShapeError(f"weight shape {w.shape} inconsistent with input/spec")
    _, _, sh, sw, ph, pw, dh, dw, h_out, w_out = _conv_geometry(spec, h, win)
    out = np.zeros((n, c_out, h_out, w_out), dtype=np.float64)
    for b in range(n):
        for co in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    acc = 0.0
                    for ci in range(c_in):
                        for u in range(kh):
                            for v in range(kw):
                                iy = i * sh - ph + u * dh
                                ix = j * sw - pw + v * dw
                                if 0 <= iy < h and 0 <= ix < win:
                                    acc += float(w[co, ci, u, v]) * float(x[b, ci, iy, ix])
                    if bias is not None:
                        acc += float(bias[co])
                    out[b, co, i, j] = acc
    return out.astype(x.dtype)


def dcnv1_conv_oracle(x: np.ndarray, w: np.ndarray, spec, offsets: np.ndarray,
                      bias: np.ndarray | None = None) -> np.ndarray:
    """Deformable convolution without modulation: sample-and-accumulate loops."""
    x = np.asarray(x)
    w = np.asarray(w)
    offsets = np.asarray(offsets)
    n, c_in, h, win = x.shape
    c_out = w.shape[0]
    kh, kw, sh, sw, ph, pw, dh, dw, h_out, w_out = _conv_geometry(spec, h, win)
    k = kh * kw
    if offsets.shape != (n, 2 * k, h_out, w_out):
        raise ShapeError(f"offsets shape {offsets.shape} != {(n, 2 * k, h_out, w_out)}")
    taps = _tap_offsets(kh, kw, dh, dw)
    base_y = kh // 2 * dh
    base_x = kw // 2 * dw
    out = np.zeros((n, c_out, h_out, w_out), dtype=np.float64)
    for b in range(n):
        for i in range(h_out):
            for j in range(w_out):
                py = i * sh - ph + base_y
                px = j * sw - pw + base_x
                for kk, (ty, tx) in enumerate(taps):
                    sy = py + ty + float(offsets[b, 2 * kk, i, j])
                    sx = px + tx + float(offsets[b, 2 * kk + 1, i, j])
                    for ci in range(c_in):
                        val = _bilerp(x[b, ci], sy, sx)
                        if val == 0.0:
                            continue
                        u, v = divmod(kk, kw)
                        for co in range(c_out):
                            out[b, co, i, j] += float(w[co, ci, u, v]) * val
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[None, :, None, None]
    return out.astype(x.dtype)


def aligned_roipool_oracle(x: np.ndarray, rois: Sequence, bins_h: int, bins_w: int,
                           samples: int = 2) -> np.ndarray:
    """Quantization-free average RoI pooling: per bin, the mean of bilinear
    samples placed at fractional positions (j+0.5)/samples along each axis.
    """
    x = np.asarray(x)
    _, c, _, _ = x.shape
    out = np.zeros((len(rois), c, bins_h, bins_w), dtype=np.float64)
    for r, roi in enumerate(rois):
        b = int(roi.batch_index)
        roi_h = float(roi.y2) - float(roi.y1)
        roi_w = float(roi.x2) - float(roi.x1)
        bh = roi_h / bins_h
        bw = roi_w / bins_w
        for by in range(bins_h):
            for bx in range(bins_w):
                for ci in range(c):
                    acc = 0.0
                    for jy in range(samples):
                        for jx in range(samples):
                            sy = float(roi.y1) + (by + (jy + 0.5) / samples) * bh
                            sx = float(roi.x1) + (bx + (jx + 0.5) / samples) * bw
                            acc += _bilerp(x[b, ci], sy, sx)
                    out[r, ci, by, bx] = acc / (samples * samples)
    return out.astype(x.dtype)


# ---------------------------------------------------------------------------
# finite differences and gradient comparison
# ---------------------------------------------------------------------------

# central-difference step, and the |a| + |n| below which an entry is skipped
FD_STEP = 1e-3
EMPTY_FLOOR = 1e-7


def finite_diff(f: Callable[[np.ndarray], float], block: np.ndarray) -> np.ndarray:
    """Central differences (f(b + h e_i) - f(b - h e_i)) / 2h, h = FD_STEP, in f64."""
    h = FD_STEP
    theta = np.array(block, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = theta.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(theta))
        flat[i] = orig - h
        fm = float(f(theta))
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise OracleError(f"non-finite objective at entry {i}: f+={fp}, f-={fm}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


@dataclass
class BlockReport:
    name: str
    max_rel_err: float
    max_abs_err: float
    compared: int
    passed: bool


@dataclass
class GradCheckReport:
    op: str
    seed: int
    tolerance: float
    blocks: list[BlockReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.blocks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "op": self.op,
                "seed": self.seed,
                "tolerance": self.tolerance,
                "pass": self.passed,
                "blocks": [
                    {
                        "name": b.name,
                        "max_rel_err": b.max_rel_err,
                        "max_abs_err": b.max_abs_err,
                        "compared": b.compared,
                        "pass": b.passed,
                    }
                    for b in self.blocks
                ],
            },
            sort_keys=True,
        )


def compare_gradients(name: str, analytic: np.ndarray, numeric: np.ndarray,
                      tolerance: float = 1e-3) -> BlockReport:
    """Relative error |a-n| / max(|a|, |n|, 1e-6); entries with
    |a| + |n| <= EMPTY_FLOOR are skipped as numerically empty.
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    if a.shape != n.shape:
        raise ShapeError(f"gradient block {name}: {a.shape} vs {n.shape}")
    keep = (np.abs(a) + np.abs(n)) > EMPTY_FLOOR
    abs_err = np.abs(a - n)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    rel = np.where(keep, abs_err / denom, 0.0)
    max_rel = float(rel.max()) if rel.size else 0.0
    max_abs = float(abs_err.max()) if abs_err.size else 0.0
    return BlockReport(name, max_rel, max_abs, int(keep.sum()), max_rel < tolerance)


def gradcheck(op_name: str, values: dict, analytic: dict, objective: Callable[..., float],
              seed: int, tolerance: float = 1e-3) -> GradCheckReport:
    """Compare `analytic[name]` with the central differences of the scalar
    `objective(**values)` in `values[name]`, the other arrays held, for
    every named array in order, and report.
    """
    report = GradCheckReport(op=op_name, seed=seed, tolerance=tolerance)
    for name, value in values.items():
        numeric = finite_diff(lambda v: objective(**{**values, name: v}), value)
        report.blocks.append(compare_gradients(name, analytic[name], numeric, tolerance))
    return report

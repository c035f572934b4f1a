import math

import numpy as np
import pytest

from dcn2.deform_conv import KernelSpec
from dcn2.oracle import (
    OracleError,
    aligned_roipool_oracle,
    compare_gradients,
    dcnv1_conv_oracle,
    dense_conv_oracle,
    finite_diff,
)


def test_dense_1x1_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 1, 4, 4))
    w = np.ones((1, 1, 1, 1))
    out = dense_conv_oracle(x, w, KernelSpec(1, 1))
    assert np.allclose(out, x)


def test_dense_box_filter_counts_taps():
    x = np.ones((1, 1, 3, 3))
    w = np.full((1, 1, 3, 3), 1.0 / 9.0)
    out = dense_conv_oracle(x, w, KernelSpec(3, 3, pad=(1, 1)))
    assert out[0, 0, 1, 1] == pytest.approx(1.0)
    # corners overlap only 4 taps
    assert out[0, 0, 0, 0] == pytest.approx(4.0 / 9.0)


def test_dcnv1_zero_offsets_equals_dense():
    rng = np.random.default_rng(1)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(2, 2, 3, 3))
    offs = np.zeros((1, 18, 5, 5))
    assert np.allclose(dcnv1_conv_oracle(x, w, spec, offs),
                       dense_conv_oracle(x, w, spec), atol=1e-12)


def _third_impl_dcnv1(x, w, spec, offsets):
    """Yet another sample-and-accumulate loop, structured differently from
    the oracle (per output channel outermost, scalar bilinear inline).
    """
    n, c_in, h, win = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = spec.stride
    ph, pw = spec.pad
    dh, dw = spec.dilation
    h_out = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    w_out = (win + 2 * pw - dw * (kw - 1) - 1) // sw + 1

    def lerp(plane, y, xq):
        y0, x0 = math.floor(y), math.floor(xq)
        acc = 0.0
        for iy, wy in ((y0, y0 + 1 - y), (y0 + 1, y - y0)):
            for ix, wx in ((x0, x0 + 1 - xq), (x0 + 1, xq - x0)):
                if 0 <= iy < h and 0 <= ix < win:
                    acc += wy * wx * plane[iy, ix]
        return acc

    out = np.zeros((n, c_out, h_out, w_out))
    for co in range(c_out):
        for b in range(n):
            for i in range(h_out):
                for j in range(w_out):
                    val = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            kk = u * kw + v
                            sy = i * sh - ph + u * dh + offsets[b, 2 * kk, i, j]
                            sx = j * sw - pw + v * dw + offsets[b, 2 * kk + 1, i, j]
                            for ci in range(c_in):
                                val += w[co, ci, u, v] * lerp(x[b, ci], sy, sx)
                    out[b, co, i, j] = val
    return out


def test_dcnv1_random_offsets_vs_independent_loop():
    rng = np.random.default_rng(2)
    spec = KernelSpec(3, 3, stride=(2, 1), pad=(1, 0))
    x = rng.normal(size=(2, 2, 6, 5))
    w = rng.normal(size=(2, 2, 3, 3))
    h_out, w_out = spec.out_size(6, 5)
    offs = rng.uniform(-2, 2, size=(2, 18, h_out, w_out))
    a = dcnv1_conv_oracle(x, w, spec, offs)
    b = _third_impl_dcnv1(x, w, spec, offs)
    assert np.allclose(a, b, atol=1e-10)


def test_aligned_pool_constant_plane():
    from dcn2.deform_roipool import RoI

    x = np.full((1, 2, 6, 6), 3.0)
    out = aligned_roipool_oracle(x, [RoI(0, 0.5, 0.5, 4.5, 4.5)], 2, 2, 2)
    assert np.allclose(out, 3.0)


def test_finite_diff_quadratic():
    theta = np.array([1.0, -2.0, 0.5, 3.0])
    grad = finite_diff(lambda v: 0.5 * float(v @ v), theta)
    assert np.allclose(grad, theta, atol=1e-8)


def test_finite_diff_rejects_nonfinite():
    with pytest.raises(OracleError):
        finite_diff(lambda v: float("inf"), np.ones(2))


def test_finite_diff_matches_bilinear_backward():
    from dcn2.sampling import bilinear_backward, bilinear_sample

    rng = np.random.default_rng(3)
    plane = rng.normal(size=(4, 4))
    pt = np.array([1.37, 2.21])
    numeric = finite_diff(lambda q: bilinear_sample(plane, (q[0], q[1])), pt)
    _, (dy, dx) = bilinear_backward(plane, pt)
    assert np.allclose(numeric, [dy, dx], rtol=1e-6, atol=1e-9)


def test_compare_gradients_metric():
    rep = compare_gradients("blk", np.array([1.0, 0.0]), np.array([1.0005, 1e-9]))
    # second entry is below the floor and skipped
    assert rep.compared == 1
    assert rep.passed
    rep = compare_gradients("blk", np.array([1.0]), np.array([1.01]))
    assert not rep.passed


def test_registry_covers_every_differentiable_op():
    from dcn2.checks import GRADCHECK_TARGETS

    assert set(GRADCHECK_TARGETS) == {
        "bilinear", "cosine_mimic", "mdconv", "mdpool", "offset_branch", "roi_branch",
        "roi_branch_batch", "mdconv_layer", "dconv_layer", "mdconv_geometry",
        "mdconv_layer_positions",
    }


def test_gradcheck_generators_raise_when_draws_run_out(monkeypatch):
    # margins no draw can meet: the generators must not fall back on their last draw
    import dcn2.checks as checks
    from dcn2.errors import ConvergenceError

    monkeypatch.setattr(checks, "LATTICE_MARGIN", 0.6)
    monkeypatch.setattr(checks, "KINK_MARGIN", np.inf)
    for op in ("mdpool", "roi_branch", "roi_branch_batch", "mdconv_layer", "dconv_layer",
               "mdconv_geometry"):
        with pytest.raises(ConvergenceError):
            checks.GRADCHECK_TARGETS[op](0)


def test_oracle_module_imports_no_kernel_code():
    # dependency direction: the naive references must not lean on the kernels
    import inspect

    import dcn2.oracle as oracle

    src = inspect.getsource(oracle)
    for banned in ("deform_conv", "deform_roipool", "sampling", "net", "mimic",
                   "support", "checks"):
        assert f"from .{banned}" not in src and f"dcn2.{banned}" not in src

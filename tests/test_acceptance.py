"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import statistics
import time

import numpy as np
import pytest

from dcn2.checks import run_gradcheck
from dcn2.deform_conv import (
    ConvWeights,
    KernelSpec,
    OffsetModulationField,
    mdconv_backward,
    mdconv_backward_optimized,
    mdconv_forward,
    mdconv_forward_optimized,
    offset_branch_forward,
)
from dcn2.deform_roipool import PoolSpec, RoI, make_roi_branch, mdpool_forward, \
    roi_branch_forward
from dcn2.mimic import MimicBatch, MimicConfig, mimic_step
from dcn2.oracle import dcnv1_conv_oracle, dense_conv_oracle
from dcn2.support import saliency_region, slic_segment, window_probe
from dcn2.synthetic import SyntheticTask, ToyNetConfig, build_two_branch_model, \
    run_mimic_training, run_toy_training

from test_deform_conv import identity_field, random_instance


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_degeneration_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    max_dense = 0.0
    max_dcnv1 = 0.0
    done = 0
    while done < 200:
        inst = random_instance(rng, offset_scale=2.5, modulation=1.0)
        if inst is None:
            continue
        done += 1
        spec, x, weights, field = inst
        if done % 2 == 0:
            zero_field = identity_field(
                x.shape[0], spec.k, *field.modulation.shape[2:])
            got = mdconv_forward(x, weights, spec, zero_field)
            want = dense_conv_oracle(x, weights.weight, spec, weights.bias)
            max_dense = max(max_dense, float(np.abs(got - want).max()))
        else:
            got = mdconv_forward(x, weights, spec, field)
            want = dcnv1_conv_oracle(x, weights.weight, spec, field.offsets, weights.bias)
            max_dcnv1 = max(max_dcnv1, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t0
    ok = max_dense < 1e-5 and max_dcnv1 < 1e-5 and elapsed < 60
    report(1, "degeneration identity", ok,
           f"200 configs, max|err| dense={max_dense:.2e} dcnv1={max_dcnv1:.2e}, "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_2_gradient_fidelity():
    t0 = time.perf_counter()
    ops = ("mdconv", "mdpool", "bilinear", "cosine_mimic", "offset_branch", "roi_branch")
    worst = {}
    all_pass = True
    for op in ops:
        reports = run_gradcheck(op, seeds=50, tolerance=1e-3)
        assert len(reports) == 50
        worst[op] = max(b.max_rel_err for r in reports for b in r.blocks)
        all_pass &= all(r.passed for r in reports)
    blocks = {r.op: len(r.blocks) for r in run_gradcheck("*", seeds=1)}
    elapsed = time.perf_counter() - t0
    ok = all_pass and blocks["mdconv"] == 5 and blocks["mdpool"] == 3 and elapsed < 300
    detail = ", ".join(f"{op}:{err:.1e}" for op, err in worst.items())
    report(2, "gradient fidelity", ok, f"max rel err {detail}, {elapsed:.1f}s (<300s)")


def test_criterion_3_initialization_contract():
    rng = np.random.default_rng(101)
    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(2, 3, 8, 8))
    k = spec.k

    branch = ConvWeights(np.zeros((3 * k, 3, 3, 3)), np.zeros(3 * k))
    field = offset_branch_forward(x, branch, spec)
    exact = bool(np.all(field.offsets == 0.0) and np.all(field.modulation == 0.5))

    weights = ConvWeights(rng.normal(size=(4, 3, 3, 3)), np.zeros(4))
    out = mdconv_forward_optimized(x, weights, spec, field)
    rigid = dense_conv_oracle(x, weights.weight, spec)
    half_err = float(np.abs(out - 0.5 * rigid).max())

    fc1, fc2, out_w = make_roi_branch(in_dim=8, k=4, hidden=32, rng=rng)
    bf, _ = roi_branch_forward(rng.normal(size=(1, 2, 2, 2)), fc1, fc2, out_w,
                               [RoI(0, 0, 0, 7, 7)])
    roi_exact = bool(np.all(bf.offsets == 0.0) and np.all(bf.modulation == 0.5))

    ok = exact and roi_exact and half_err < 1e-5
    report(3, "initialization contract", ok,
           f"conv branch exact={exact}, roi branch exact={roi_exact}, "
           f"|out - 0.5*rigid|={half_err:.2e} (<1e-5)")


def test_criterion_4_optimized_equivalence_and_speed():
    rng = np.random.default_rng(102)
    max_err = 0.0
    done = 0
    while done < 30:
        inst = random_instance(rng, offset_scale=3.0)
        if inst is None:
            continue
        done += 1
        spec, x, weights, field = inst
        ref = mdconv_forward(x, weights, spec, field)
        opt = mdconv_forward_optimized(x, weights, spec, field)
        max_err = max(max_err, float(np.abs(ref - opt).max()))
        upstream = rng.normal(size=ref.shape)
        for a, b in zip(mdconv_backward(x, weights, spec, field, upstream),
                        mdconv_backward_optimized(x, weights, spec, field, upstream)):
            max_err = max(max_err, float(np.abs(a - b).max()))

    spec = KernelSpec(3, 3, pad=(1, 1))
    x = rng.normal(size=(1, 64, 128, 128)).astype(np.float32)
    weights = ConvWeights(rng.normal(size=(64, 64, 3, 3)).astype(np.float32),
                          np.zeros(64, dtype=np.float32))
    h_out, w_out = spec.out_size(128, 128)
    field = OffsetModulationField(
        rng.uniform(-1, 1, size=(1, 18, h_out, w_out)).astype(np.float32),
        rng.uniform(0.2, 0.9, size=(1, 9, h_out, w_out)).astype(np.float32),
    )
    t0 = time.perf_counter()
    mdconv_forward_optimized(x, weights, spec, field)
    t_opt = time.perf_counter() - t0
    t0 = time.perf_counter()
    mdconv_forward(x, weights, spec, field)
    t_ref = time.perf_counter() - t0
    speedup = t_ref / t_opt

    ok = max_err < 1e-5 and speedup >= 3.0
    report(4, "optimized equivalence and speed", ok,
           f"max|err|={max_err:.2e} (<1e-5), speedup {speedup:.1f}x "
           f"(oracle {t_ref:.2f}s vs optimized {t_opt:.3f}s, need >=3x)")


def test_criterion_5_saliency_optimizer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    img = rng.uniform(0.1, 1.0, size=(1, 32, 32))
    y0, x0 = 12, 14
    probe = window_probe(y0, x0, 8, 8)
    mask = saliency_region(probe, img, epsilon=0.1, center=(y0 + 3.5, x0 + 3.5),
                           target_segments=40)

    seg = slic_segment(img, 40)
    window = np.zeros((32, 32), dtype=bool)
    window[y0:y0 + 8, x0:x0 + 8] = True
    cover = set(np.unique(seg.labels[window]))
    kept = set(np.unique(seg.labels[mask.mask.astype(bool)]))
    stray = set()
    for s in kept - cover:
        cells = seg.labels == s
        grown = np.zeros_like(cells)
        grown[1:, :] |= cells[:-1, :]
        grown[:-1, :] |= cells[1:, :]
        grown[:, 1:] |= cells[:, :-1]
        grown[:, :-1] |= cells[:, 1:]
        if not set(np.unique(seg.labels[grown & ~cells])) & cover:
            stray.add(s)
    sizes = mask.step2_sizes
    monotone = all(a >= b for a, b in zip(sizes, sizes[1:]))
    elapsed = time.perf_counter() - t0
    ok = mask.achieved_error < 0.1 and not stray and monotone and elapsed < 120
    report(5, "saliency optimizer", ok,
           f"achieved {mask.achieved_error:.3f} (<0.1), stray segments {sorted(stray)}, "
           f"step-2 sizes non-increasing={monotone}, {elapsed:.1f}s (<120s)")


def test_criterion_6_mechanism_demonstration():
    t0 = time.perf_counter()
    seeds = range(5)
    dilations = (1.0, 2.0, 3.0)
    compare_d = 2.0
    cfg_md = ToyNetConfig(layers=("regular", "mdconv"), channels=(6, 6),
                          image_size=24, batch_size=8, learning_rate=0.1)
    cfg_rigid = ToyNetConfig(layers=("regular", "regular"), channels=(6, 6),
                             image_size=24, batch_size=8, learning_rate=0.1)

    offsets = {d: [] for d in dilations}
    md_losses = []
    rigid_losses = []
    for d in dilations:
        task = SyntheticTask(mode="dilate", image_size=24, dilation=d, seed=0)
        for seed in seeds:
            m, _ = run_toy_training(cfg_md, task, steps=500, seed=seed)
            offsets[d].append(m["mean_abs_offset"]["layer1.mdconv"])
            if d == compare_d:
                md_losses.append(m["final_eval_loss"])
    task = SyntheticTask(mode="dilate", image_size=24, dilation=compare_d, seed=0)
    for seed in seeds:
        m, _ = run_toy_training(cfg_rigid, task, steps=500, seed=seed)
        rigid_losses.append(m["final_eval_loss"])

    md_median = statistics.median(md_losses)
    rigid_median = statistics.median(rigid_losses)
    med_off = [statistics.median(offsets[d]) for d in dilations]
    monotone = med_off[0] < med_off[1] < med_off[2]
    elapsed = time.perf_counter() - t0
    ok = md_median < rigid_median and monotone and elapsed < 900
    report(6, "mechanism demonstration", ok,
           f"median loss mdconv {md_median:.4f} < rigid {rigid_median:.4f}: "
           f"{md_median < rigid_median}; median |dp| per dilation "
           f"{[round(v, 3) for v in med_off]} monotone={monotone}; "
           f"{elapsed:.0f}s (<900s)")


def test_criterion_7_mimic_wiring():
    cfg = ToyNetConfig(layers=("regular",), channels=(4,), image_size=12,
                       batch_size=3, learning_rate=0.02, head_widths=(8,))
    task = SyntheticTask(mode="translate", image_size=12, seed=0)
    zero = MimicConfig(mimic_weight=0.0, rcnn_cls_weight=0.0, patch_size=(12, 12))
    m1, net1 = run_mimic_training(cfg, task, 8, seed=11, mimic_cfg=zero)
    m2, net2 = run_mimic_training(cfg, task, 8, seed=11, mimic_cfg=zero)
    bytes_equal = json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
    params_equal = all(np.array_equal(a.value, b.value)
                       for a, b in zip(net1.params(), net2.params()))

    rng = np.random.default_rng(104)
    model = build_two_branch_model(cfg, 2, rng)
    images = rng.normal(size=(3, 1, 12, 12))
    rois = [RoI(i, 0.0, 0.0, 11.0, 11.0) for i in range(3)]
    batch = MimicBatch(rois, images.copy(), np.array([0, 1, 2]))
    _, parts = mimic_step(model, images, batch, MimicConfig(patch_size=(12, 12)))
    exact_zero = parts["mimic"] == 0.0

    ok = bytes_equal and params_equal and exact_zero
    report(7, "mimic loss wiring", ok,
           f"weight-0 trajectory bitwise equal={bytes_equal and params_equal}, "
           f"mimic at step 0 = {parts['mimic']} (exactly 0: {exact_zero})")


def test_criterion_8_constant_input_law():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        c = float(rng.uniform(-3, 3))
        x = np.full((2, 3, 12, 12), c)
        spec = PoolSpec(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                        samples=int(rng.integers(1, 4)))
        rois = [RoI(int(rng.integers(0, 2)), 3.0, 3.0,
                    3.0 + rng.uniform(0.5, 4.0), 3.0 + rng.uniform(0.5, 4.0))
                for _ in range(3)]
        # offsets stay in-bounds: samples live in [3, 7+1] plus offset in [-2, 2]
        draws = [(rng.uniform(-2.0, 2.0, 2 * spec.k), rng.uniform(0.0, 1.0, spec.k))
                 for _ in rois]
        field = OffsetModulationField(np.stack([o for o, _ in draws]),
                                      np.stack([m for _, m in draws]))
        out = mdpool_forward(x, rois, spec, field)
        for r in range(len(rois)):
            want = c * field.modulation[r].reshape(spec.bins_h, spec.bins_w)
            worst = max(worst, float(np.abs(out[r] - want[None]).max()))
    ok = worst < 1e-6
    report(8, "constant-input pooling law", ok, f"max |bin - c*dm| = {worst:.2e} (<1e-6)")

"""Span tracing of dcn2 from the outside.

`Tracer.install()` replaces the public functions and layer methods of each
dcn2 module with wrappers that record one span per call: name, start, end,
parent span and op id. Nothing inside `src/` changes; a function imported by
name into another module (or into the benchmark's own modules) is replaced
in every namespace that holds it, so every call site goes through the
wrapper. `Tracer.uninstall()` puts the originals back.

Per-layer metrics are derived from the span list alone: a span's self time is
its duration (process CPU time, see `clock`) minus the durations of its
direct children. Spans nest because
the kernels run on one thread (the library default); run.py refuses to
trace with more kernel threads.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy as np

from dcn2 import cli, runtime
from dcn2.deform_conv import ConvWeights, OffsetModulationField

# Every time in the benchmark is CPU time of this process. The library and
# BLAS run on one thread here, so CPU time is the op's wall time minus the
# time the host took the CPU away, which on a shared machine is most of the
# run-to-run noise.
clock = time.process_time

# module -> public functions to wrap
FUNCTIONS = {
    "deform_conv": ["mdconv_forward_optimized", "mdconv_backward_optimized",
                    "dense_conv_forward", "dense_conv_backward"],
    "sampling": ["bilinear_corner_gather"],
    "deform_roipool": ["mdpool_forward", "mdpool_backward", "aligned_pool_forward",
                       "aligned_pool_backward", "roi_branch_forward", "roi_branch_backward"],
    "net": ["softmax_cross_entropy", "mse_loss"],
    "mimic": ["mimic_step", "crop_resize_patch"],
    "support": ["effective_receptive_field", "saliency_region", "slic_segment"],
}

# module -> class -> methods to wrap
METHODS = {
    "net": {
        "SGD": ["zero_grad", "step"],
        "Conv2dLayer": ["forward", "backward"],
        "DeformConv2dLayer": ["forward", "backward"],
        "ReLULayer": ["forward", "backward"],
        "AffineLayer": ["forward", "backward"],
        "RoIPoolLayer": ["forward", "backward"],
        "Sequential": ["forward", "backward"],
    },
    "mimic": {
        "TwoBranchModel": ["roi_features", "roi_features_backward"],
        "MimicBatch": ["build"],
    },
    "synthetic": {"SyntheticTask": ["sample_batch", "sample_detection_batch"]},
    "support": {"NodeProbe": ["response", "gradient"]},
}

# per-layer time metric -> spans whose self time it sums
TIME_METRICS = {
    "deform_conv.mdconv_fwd_ms": ["deform_conv.mdconv_forward_optimized"],
    "deform_conv.mdconv_bwd_ms": ["deform_conv.mdconv_backward_optimized"],
    "deform_conv.dense_fwd_ms": ["deform_conv.dense_conv_forward"],
    "deform_conv.dense_bwd_ms": ["deform_conv.dense_conv_backward"],
    "sampling.gather_ms": ["sampling.bilinear_corner_gather"],
    "deform_roipool.mdpool_fwd_ms": ["deform_roipool.mdpool_forward",
                                     "deform_roipool.aligned_pool_forward"],
    "deform_roipool.mdpool_bwd_ms": ["deform_roipool.mdpool_backward",
                                     "deform_roipool.aligned_pool_backward"],
    "deform_roipool.branch_fwd_ms": ["deform_roipool.roi_branch_forward"],
    "deform_roipool.branch_bwd_ms": ["deform_roipool.roi_branch_backward"],
    "net.glue_ms": [f"net.{cls}.{m}" for cls in ("Conv2dLayer", "DeformConv2dLayer",
                                                 "ReLULayer", "AffineLayer", "RoIPoolLayer",
                                                 "Sequential")
                    for m in ("forward", "backward")]
                   + ["net.softmax_cross_entropy", "net.mse_loss"],
    "net.sgd_ms": ["net.SGD.zero_grad", "net.SGD.step"],
    "mimic.step_self_ms": ["mimic.mimic_step", "mimic.TwoBranchModel.roi_features",
                           "mimic.TwoBranchModel.roi_features_backward"],
    "mimic.crop_ms": ["mimic.crop_resize_patch"],
    "mimic.batch_build_ms": ["mimic.MimicBatch.build"],
    "synthetic.sample_ms": ["synthetic.SyntheticTask.sample_batch",
                            "synthetic.SyntheticTask.sample_detection_batch"],
    # the saliency search itself plus each probe evaluation, kernels excluded
    "support.probe_ms": ["support.saliency_region", "support.NodeProbe.response"],
    "support.slic_ms": ["support.slic_segment"],
    "support.erf_ms": ["support.effective_receptive_field", "support.NodeProbe.gradient"],
}

# per-layer count metric -> spans it counts
COUNT_METRICS = {
    "deform_conv.mdconv_calls": ["deform_conv.mdconv_forward_optimized",
                                 "deform_conv.mdconv_backward_optimized"],
    "sampling.gather_calls": ["sampling.bilinear_corner_gather"],
    "deform_roipool.branch_calls": ["deform_roipool.roi_branch_forward",
                                    "deform_roipool.roi_branch_backward"],
    "mimic.trunk_forwards": ["mimic.TwoBranchModel.roi_features"],
    "support.probe_calls": ["support.NodeProbe.response"],
}

# inclusive groups whose share of the op the traced run prints
SHARE_GROUPS = {
    "mdconv kernels": ["deform_conv.mdconv_forward_optimized",
                       "deform_conv.mdconv_backward_optimized"],
    "dense conv kernels": ["deform_conv.dense_conv_forward", "deform_conv.dense_conv_backward"],
    "pooling kernels": ["deform_roipool.mdpool_forward", "deform_roipool.mdpool_backward",
                        "deform_roipool.aligned_pool_forward",
                        "deform_roipool.aligned_pool_backward"],
    "RoI branch": ["deform_roipool.roi_branch_forward", "deform_roipool.roi_branch_backward"],
    "probe evaluations": ["support.NodeProbe.response", "support.NodeProbe.gradient"],
    "SLIC": ["support.slic_segment"],
}

KERNEL_SPANS = ("deform_conv.mdconv_forward_optimized", "deform_conv.mdconv_backward_optimized",
                "deform_conv.dense_conv_forward", "deform_conv.dense_conv_backward")


def _nbytes(obj) -> int:
    """Bytes of every array reachable from a kernel argument or result."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    if isinstance(obj, ConvWeights):
        return _nbytes(obj.weight) + _nbytes(obj.bias)
    if isinstance(obj, OffsetModulationField):
        return _nbytes(obj.offsets) + _nbytes(obj.modulation)
    return 0


def _kernel_bytes(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(args) + _nbytes(list(kwargs.values())) + _nbytes(result)}


def _layer_macs(args, kwargs, result) -> dict:
    """Forward MACs of one conv layer call by the formulas `dcn2 bench` prints."""
    layer, x = args[0], args[1]
    n, c_in = x.shape[:2]
    _, c_out, h_out, w_out = result.shape
    kh, kw = layer.spec.kernel_h, layer.spec.kernel_w
    if hasattr(layer, "modulated"):
        per_image = cli.mdconv_macs(c_in, c_out, kh, kw, h_out, w_out, layer.modulated)
    else:
        per_image = cli.conv_macs(c_in, c_out, kh, kw, h_out, w_out)
    return {"macs": n * per_image}


MEASURES = {name: _kernel_bytes for name in KERNEL_SPANS}
MEASURES["net.Conv2dLayer.forward"] = _layer_macs
MEASURES["net.DeformConv2dLayer.forward"] = _layer_macs


class Tracer:
    """Records spans into memory while installed; see the module docstring."""

    def __init__(self, extra_namespaces=()):
        self.extra_namespaces = list(extra_namespaces)
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _record(self, name: str, fn, measure=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"name": name, "start": 0.0, "end": 0.0,
                   "parent": stack[-1] if stack else None, "op": self._op}
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                stack.pop()
            if measure is not None:
                rec.update(measure(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Mark one benchmark op: a root span, and op_id on every span in it."""
        rec = {"name": "op", "start": clock(), "end": 0.0,
               "parent": None, "op": op_id}
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = clock()
            self._stack.pop()
            self._op = None

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "dcn2" or name.startswith("dcn2.")]
        namespaces += self.extra_namespaces
        replace = {}
        for mod_name, fnames in FUNCTIONS.items():
            mod = sys.modules[f"dcn2.{mod_name}"]
            for fname in fnames:
                span = f"{mod_name}.{fname}"
                replace[id(getattr(mod, fname))] = self._record(
                    span, getattr(mod, fname), MEASURES.get(span))
        orig_run_chunks = runtime.run_chunks

        def run_chunks(fn, chunks, *args, **kwargs):
            now = clock()
            self.spans.append({"name": "runtime.run_chunks", "start": now, "end": now,
                               "parent": self._stack[-1] if self._stack else None,
                               "op": self._op, "chunks": len(chunks)})
            return orig_run_chunks(fn, chunks, *args, **kwargs)

        replace[id(orig_run_chunks)] = run_chunks
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if callable(value) and id(value) in replace:
                    self._set(ns, attr, replace[id(value)])
        for mod_name, classes in METHODS.items():
            mod = sys.modules[f"dcn2.{mod_name}"]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = inspect.getattr_static(cls, meth)
                    span = f"{mod_name}.{cls_name}.{meth}"
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._record(span, raw.__func__))
                    else:
                        wrapped = self._record(span, raw, MEASURES.get(span))
                    self._set(cls, meth, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration minus direct children, per span, in seconds."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - c for rec, c in zip(spans, child)]


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """(per-layer metrics per op, self ms per op of every span name).

    Each value is a total over the traced ops divided by their number.
    """
    op_spans = [rec for rec in spans if rec["name"] == "op"]
    n_ops = len(op_spans)
    by_name: dict[str, float] = {}
    counts: dict[str, int] = {}
    macs = 0
    nbytes = 0
    chunks = 0
    chunk_calls = 0
    for rec, st in zip(spans, self_times(spans)):
        name = rec["name"]
        by_name[name] = by_name.get(name, 0.0) + st
        counts[name] = counts.get(name, 0) + 1
        macs += rec.get("macs", 0)
        nbytes += rec.get("bytes", 0)
        if "chunks" in rec:
            chunks += rec["chunks"]
            chunk_calls += 1
    metrics = {}
    for metric, names in TIME_METRICS.items():
        metrics[metric] = 1e3 * sum(by_name.get(n, 0.0) for n in names) / n_ops
    for metric, names in COUNT_METRICS.items():
        metrics[metric] = sum(counts.get(n, 0) for n in names) / n_ops
    metrics["deform_conv.macs"] = macs / n_ops
    metrics["deform_conv.bytes_computed"] = nbytes / n_ops
    metrics["runtime.chunks_per_call"] = chunks / chunk_calls if chunk_calls else 0.0
    op_total = sum(rec["end"] - rec["start"] for rec in op_spans)
    metrics["trace.accounted_frac"] = 1.0 - by_name["op"] / op_total
    per_span = {name: 1e3 * t / n_ops for name, t in by_name.items()}
    return metrics, per_span


def inclusive_shares(spans: list[dict]) -> dict[str, float]:
    """Share of the traced op time spent inside each SHARE_GROUPS group,
    children included and nested group spans counted once.
    """
    op_total = sum(rec["end"] - rec["start"] for rec in spans if rec["name"] == "op")
    shares = {}
    for group, names in SHARE_GROUPS.items():
        members = set(names)
        total = 0.0
        for rec in spans:
            if rec["name"] not in members:
                continue
            parent = rec["parent"]
            while parent is not None and spans[parent]["name"] not in members:
                parent = spans[parent]["parent"]
            if parent is None:
                total += rec["end"] - rec["start"]
        if total > 0:
            shares[group] = total / op_total
    return shares

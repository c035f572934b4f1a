"""dcn2 benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload mimic_train --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from `src/`. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A failed op or correctness check makes
`correct` false and the exit code 1. Times are CPU times of this process,
and the end-to-end ones are scaled to a nominal machine speed by a reference
load run next to the ops (reference.py). README.md defines the workloads,
the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 7
# reference CPU time after each op, as a share of the op's: enough samples
# that the median reference time varies less than the ops do
REF_SHARE = 0.1
OVERDENSE_REPEATS = 5

# One BLAS thread, like the library's one kernel thread. On 2 CPUs OpenBLAS's
# own threads made no op faster, but they spin while they wait: the process
# used twice its wall time in CPU, and the host's other load became noise.
# Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------

def _blas_threads() -> str:
    """OpenBLAS's own thread count when its library can be found, else the
    environment setting.
    """
    import ctypes
    import glob

    import numpy as np

    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    setting = ",".join(f"{k}={v}" for k, v in env.items()) or "env unset"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return f"{fn()} ({setting})"
    return setting


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "n/a (not a git checkout)"
    with open(head, encoding="ascii") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return "unknown"


def _src_lines() -> int:
    total = 0
    pkg = os.path.join(SRC, "dcn2")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def environment() -> dict:
    import numpy as np
    import scipy

    from dcn2 import runtime

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "dcn2_threads": runtime.num_threads(),
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "src_lines": _src_lines(),
    }


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def set_up(cls, seed: int, clock):
    """Build the workload SETUP_REPEATS times; keep the last, return the CPU
    times of input generation, construction and one warm-up op, and the
    same times scaled by reference runs made just before each set-up.
    """
    import reference

    times = []
    scaled = []
    wl = None
    for _ in range(SETUP_REPEATS):
        wl = None  # release the previous instance before timing the next
        k = reference.scale(reference.timed(clock, 3))
        t0 = clock()
        wl = cls(seed)
        wl.op(wl.next_inputs())
        times.append(clock() - t0)
        scaled.append(k * times[-1])
    return wl, times, scaled


def timed_phase(wl, seconds: float, clock, tracer=None) -> dict:
    """Closed loop: one op at a time until `seconds` of wall time have passed.
    Each op's latency is taken on both the wall clock and `clock` (CPU time),
    and the reference load runs after each op, outside its timing, for about
    REF_SHARE of the op's CPU time. With a tracer, every second op runs
    traced, so both kinds see the same machine state and their ratio gives
    the tracing overhead.
    """
    import reference

    latencies = []
    cpu = []
    ref_times = []
    traced = []
    errors = []
    min_ops = 1 if tracer is None else 2  # a traced run needs one op of each kind
    inputs_cpu = 0.0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or len(latencies) < min_ops:
        c_in = clock()
        inputs = wl.next_inputs()
        inputs_cpu += clock() - c_in
        i = len(latencies)
        trace_op = tracer is not None and i % 2 == 1
        if trace_op:
            tracer.install()
        t0 = time.perf_counter()
        c0 = clock()
        try:
            if trace_op:
                with tracer.op(i):
                    wl.op(inputs)
            else:
                wl.op(inputs)
        except Exception as exc:  # an op that raises is a failed op, the run goes on
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        cpu.append(clock() - c0)
        latencies.append(time.perf_counter() - t0)
        if trace_op:
            tracer.uninstall()
        traced.append(trace_op)
        ref_times += reference.timed(
            clock, 1 + int(REF_SHARE * cpu[-1] / (1e-3 * reference.NOMINAL_MS)))
    elapsed = time.perf_counter() - t_start
    cpu_s = inputs_cpu + sum(cpu)
    done = len(latencies) - len(errors)
    return {"latencies": latencies, "cpu": cpu, "ref_times": ref_times, "traced": traced,
            "errors": errors, "elapsed": elapsed, "cpu_s": cpu_s,
            "ops_per_s": done / elapsed, "ops_per_cpu_s": done / cpu_s}


def fwd_over_dense(det, clock) -> float:
    """Median mdconv forward over median dense conv forward of a fresh
    `detect_train` conv layer on its feature map: same shape and weights.
    """
    from dcn2.deform_conv import (ConvWeights, dense_conv_forward, mdconv_forward_optimized,
                                  offset_branch_forward)

    layer, x = det.conv, det.feat
    w = ConvWeights(layer.weight.value, layer.bias.value)
    fld = offset_branch_forward(
        x, ConvWeights(layer.branch_weight.value, layer.branch_bias.value), layer.spec)

    def median_time(fn):
        fn()
        times = []
        for _ in range(OVERDENSE_REPEATS):
            t0 = clock()
            fn()
            times.append(clock() - t0)
        return statistics.median(times)

    md = median_time(lambda: mdconv_forward_optimized(x, w, layer.spec, fld))
    dense = median_time(lambda: dense_conv_forward(x, w, layer.spec))
    return md / dense


def tail_percentile(values: list[float]):
    """(p, value) for the highest whole percentile with at least 10 samples
    beyond it, or None when there are too few samples for one above p50.
    """
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dcn2", "__init__.py")):
        print(f"perfbench: no dcn2 package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import reference
    import workloads
    from tracing import Tracer, clock, inclusive_shares, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    from dcn2 import runtime

    if args.trace and runtime.num_threads() != 1:
        print("perfbench: --trace 1 needs the default single dcn2 kernel thread "
              "(unset DCN2_THREADS)", file=sys.stderr)
        return 2

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    wl, setup_times, setup_scaled = set_up(workloads.WORKLOADS[args.workload], args.seed, clock)
    print(f"inputs {wl.describe()}")
    tracer = Tracer(extra_namespaces=[workloads]) if args.trace else None
    run = timed_phase(wl, args.seconds, clock, tracer)
    try:
        errs = wl.check()
    except Exception as exc:  # a check that cannot run is a failed check
        errs = {f"check raised {type(exc).__name__}: {exc}": float("inf")}
    bad_checks = [name for name, err in errs.items() if not err < workloads.TOLERANCE]

    attempted = len(run["latencies"]) + len(bad_checks)
    failed = len(run["errors"]) + len(bad_checks)
    plain_ms = [1e3 * t for t, tr in zip(run["latencies"], run["traced"]) if not tr]
    plain_cpu_ms = [1e3 * t for t, tr in zip(run["cpu"], run["traced"]) if not tr]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # CPU times at the nominal machine speed
    k_run = reference.scale(run["ref_times"])
    setup_s = statistics.median(setup_scaled)
    ops_per_s_scaled = run["ops_per_cpu_s"] / k_run
    op_ms_p50_scaled = k_run * statistics.median(plain_cpu_ms)

    done = len(run["latencies"]) - len(run["errors"])
    print(f"machine speed: reference {1e3 * statistics.median(run['ref_times']):.3f} ms "
          f"in the timed phase, nominal {reference.NOMINAL_MS} ms")
    print(f"ops_per_s_scaled  {ops_per_s_scaled:.4f} 1/s  (raw {run['ops_per_cpu_s']:.4f}: "
          f"{done} ops in {run['cpu_s']:.2f} CPU s)")
    print(f"op_ms_p50_scaled  {op_ms_p50_scaled:.3f} ms  "
          f"(raw CPU {statistics.median(plain_cpu_ms):.3f} ms, n={len(plain_cpu_ms)} untraced)")
    tail = tail_percentile(plain_cpu_ms)
    if tail:
        print(f"op_ms_p{tail[0]}_scaled  {k_run * tail[1]:.3f} ms  (n={len(plain_cpu_ms)})")
    print(f"ops_per_s         {run['ops_per_s']:.4f} 1/s  (wall, {run['elapsed']:.2f} s)")
    print(f"op_ms_p50         {statistics.median(plain_ms):.3f} ms  (wall, n={len(plain_ms)})")
    print(f"peak_rss_mb       {peak_rss_mb:.1f} MB")
    print(f"setup_s           {setup_s:.4f} s  (median of {len(setup_scaled)} scaled; raw CPU "
          f"{', '.join(f'{t:.4f}' for t in setup_times)})")
    print(f"error_rate        {failed / attempted:.4f}  ({failed} of {attempted} failed)")
    for name, err in errs.items():
        print(f"check {name:18s} err={err:.3g} {'ok' if err < workloads.TOLERANCE else 'FAIL'}")
    for e in run["errors"]:
        print(f"failed {e}")

    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        span_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_file)
        traced_s = [t for t, tr in zip(run["cpu"], run["traced"]) if tr]
        layers, per_span = layer_metrics(tracer.spans)
        layers["deform_conv.fwd_over_dense"] = fwd_over_dense(workloads.DetectTrain(args.seed), clock)
        # ops per second over the time spent in each kind of op
        layers["trace.overhead_frac"] = 1.0 - (len(traced_s) / sum(traced_s)) / (
            len(plain_cpu_ms) / (1e-3 * sum(plain_cpu_ms)))
        op_ms = 1e3 * statistics.mean(traced_s)
        print(f"trace {len(traced_s)} traced ops, {len(tracer.spans)} spans -> "
              f"{os.path.relpath(span_file, ROOT)}; mean traced op {op_ms:.3f} ms")
        print("self time per op by span (ms, share of traced op):")
        for name, ms in sorted(per_span.items(), key=lambda kv: -kv[1]):
            if ms >= 0.005 * op_ms:
                print(f"  {name:48s} {ms:10.3f}  {100 * ms / op_ms:5.1f}%")
        print("share of traced op, children included:")
        for group, share in inclusive_shares(tracer.spans).items():
            print(f"  {group:48s} {100 * share:5.1f}%")
        for name, value in layers.items():
            print(f"layer {name:32s} {value:.6g}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in _with_units(layers)}
    else:
        metrics = {
            "ops_per_s_scaled": {"value": ops_per_s_scaled, "unit": "1/s"},
            "op_ms_p50_scaled": {"value": op_ms_p50_scaled, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _with_units(layers: dict):
    for name, value in layers.items():
        if name.endswith("_ms"):
            unit = "ms"
        elif name == "deform_conv.bytes_computed":
            unit = "B"
        elif name.endswith(("_calls", "_forwards", ".macs", "chunks_per_call")):
            unit = "count"
        else:
            unit = "ratio"
        yield name, value, unit


if __name__ == "__main__":
    sys.exit(main())

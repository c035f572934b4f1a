"""A fixed reference load that measures how fast the machine is right now.

On a shared virtual machine the CPU time of the same op drifts by up to a
fifth over tens of seconds, as other tenants load the host's cores, caches
and memory. `run.py` runs `reference()` after every op and around every
set-up, and scales each measured CPU time by `NOMINAL_MS / median reference
time`: a drift slows the reference and the op alike and cancels out, while a
change to dcn2 moves only the op, because the reference never calls dcn2.

The reference mixes what the workloads do: an interpreted Python loop, a
float32 matrix product of an im2col shape, and a random gather. Its inputs
are fixed; they do not follow `--seed`.
"""

from __future__ import annotations

import statistics

import numpy as np

# median CPU time of one reference() call on the 2-vCPU Intel Xeon virtual
# machine the benchmark was written on; scaled times read as times there
NOMINAL_MS = 11.0

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((64, 64 * 9)).astype(np.float32)
_B = _rng.standard_normal((64 * 9, 960)).astype(np.float32)
_X = _rng.standard_normal(200_000)
_IDX = _rng.integers(0, _X.size, _X.size)


def reference() -> float:
    s = 0
    for i in range(60_000):
        s += i * i
    acc = float(s % 7)
    for _ in range(3):
        acc += float((_A @ _B)[0, 0])
        acc += float(_X[_IDX].sum())
    return acc


def timed(clock, n: int = 1) -> list[float]:
    """Run the reference once untimed, then n times more; return the time of
    each of those n runs on `clock`.

    The untimed run puts the reference's own code and data back in the
    caches. A run straight after an op found them evicted, to a degree that
    depends on how much memory the op touched, and measured up to a fifth
    slower than a run after another reference run.
    """
    reference()
    times = []
    for _ in range(n):
        t0 = clock()
        reference()
        times.append(clock() - t0)
    return times


def scale(ref_times: list[float]) -> float:
    """Factor that turns a time measured next to `ref_times` into a time at
    the nominal machine speed.
    """
    return 1e-3 * NOMINAL_MS / statistics.median(ref_times)

"""Process-wide kernel execution settings (thread count) and the chunk runner."""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor

_num_threads = None


def num_threads() -> int:
    global _num_threads
    if _num_threads is None:
        env = os.environ.get("DCN2_THREADS", "")
        _num_threads = max(1, int(env)) if env.isdigit() and int(env) > 0 else 1
    return _num_threads


def set_num_threads(n: int) -> None:
    global _num_threads
    _num_threads = max(1, int(n))


def run_chunks(fn, chunks):
    """Apply fn over chunks, serially or on a pool of `num_threads()` threads.

    Results come back in chunk order regardless of thread scheduling, so a
    caller that reduces them in that order gets the same bits for any thread
    count. Every chunk runs in a copy of the caller's context, so a
    `numpy.errstate` around the call holds in the pool's threads too.
    """
    threads = num_threads()
    if threads == 1 or len(chunks) <= 1:
        for ch in chunks:
            yield fn(ch)
        return
    context = contextvars.copy_context()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(lambda ch: context.copy().run(fn, ch), chunks)

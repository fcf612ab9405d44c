"""Ordered thread mapping for embarrassingly parallel work units.

Inputs must be read-only for the workers; results are returned in the order
of ``items`` regardless of scheduling, so callers are deterministic for any
thread count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .exceptions import InvalidParameters


def resolve_threads(threads):
    """Resolve a thread-count setting: a positive count is used as given;
    0, ``None`` and ``"auto"`` mean one thread per CPU.  A negative count is
    :class:`InvalidParameters`."""
    count = 0 if threads in (None, "auto") else int(threads)
    if count < 0:
        raise InvalidParameters(f"thread count must be 'auto', 0 or positive, got {threads}")
    return count or os.cpu_count() or 1


def parallel_map(fn, items, threads=1):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

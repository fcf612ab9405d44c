"""Ordered thread mapping for embarrassingly parallel work units.

Inputs must be read-only for the workers; results are returned in the order
of ``items`` regardless of scheduling, so callers are deterministic for any
thread count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .exceptions import InvalidParameters

THREADS_ENV_VAR = "ALPHAREG_THREADS"


def resolve_threads(threads):
    """Resolve a thread-count setting, honoring the environment override."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise InvalidParameters(
                f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
    if threads in (None, "auto", 0):
        return os.cpu_count() or 1
    return max(1, int(threads))


def parallel_map(fn, items, threads=1):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

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
    """Resolve a thread-count setting, honoring the environment override.

    A positive count is used as given; 0, ``None`` and ``"auto"`` mean one
    thread per CPU.  ``ALPHAREG_THREADS``, when set, must be an integer and
    replaces the setting, 0 again meaning one per CPU.  A negative count from
    either is :class:`InvalidParameters`.
    """
    count = 0 if threads in (None, "auto") else int(threads)
    if count < 0:
        raise InvalidParameters(f"thread count must be 'auto', 0 or positive, got {threads}")
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            count = int(env)
        except ValueError:
            raise InvalidParameters(
                f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
        if count < 0:
            raise InvalidParameters(
                f"{THREADS_ENV_VAR} must be 0 (auto) or positive, got {env!r}")
    return count or os.cpu_count() or 1


def parallel_map(fn, items, threads=1):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

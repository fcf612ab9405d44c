"""The thread-count rule and an ordered map over work units.

Every batched loop in the package (folds, GWaR locations, bootstrap
replicates) runs on one thread, because on two it measured slower.
``resolve_threads`` is still the one rule for a thread-count setting (the
CLI's ``--threads`` is checked by it and then ignored), and
``parallel_map`` is a plain loop that returns results in the order of
``items``; both stay so that callers and the benchmark that name them run.
"""

import os

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
    """``[fn(item) for item in items]``; ``threads`` is accepted and ignored."""
    return [fn(item) for item in items]

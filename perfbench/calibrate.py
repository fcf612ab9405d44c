"""A fixed yardstick of machine speed, independent of alphareg.

The machine this benchmark was built on is shared, and its speed changes by
up to 2x for minutes at a time.  Wall and CPU times of one call swing by as
much, while the ratio of a call's time to the time of a fixed piece of
similar work run next to it stays within a few percent.  The benchmark
therefore times ``yardstick`` around every timed call and reports times at
the nominal speed of a quiet machine:

    normalised seconds = measured seconds * NOMINAL_S / yardstick seconds

The yardstick mixes what the workloads spend time on: small-array NumPy calls
with Python overhead between them and a Cholesky solve.  It stays clear of
multi-threaded BLAS, so thread settings do not move it.  It must never
change, or normalised times of different commits stop being comparable.
"""

import os
import statistics
import time

import numpy as np

NOMINAL_S = 0.0075  # the yardstick on a quiet 2-CPU x86-64 machine, OpenBLAS 0.3.31
PIECES = 5

_rng = np.random.default_rng(20251012)
_X = _rng.normal(size=(300, 4))
_B = 0.1 * _rng.normal(size=(4, 3))


def _piece():
    acc = 0.0
    for _ in range(130):
        eta = _X @ _B
        e = np.exp(eta)
        mu = e / (1.0 + e.sum(axis=1, keepdims=True))
        J = np.einsum("ik,ia->ika", mu, _X).reshape(300, 12)
        L = np.linalg.cholesky(J.T @ J + np.eye(12))
        acc += float(np.linalg.solve(L, J.T @ mu[:, 0]).sum())
        for i in range(100):
            acc += i * 0.5
    return acc


def _median_of_pieces():
    times = []
    for _ in range(PIECES):
        t0 = time.perf_counter()
        _piece()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def yardstick(cpus=()):
    """Median wall seconds of a fixed unit of work over ``PIECES`` repeats.

    With ``cpus``, the calling thread is pinned to each of them in turn and
    the mean of the per-CPU medians is returned: the CPUs of a shared host
    change speed separately, and a workload running threads on all of them
    sees their mean.  The first call in a process also pays the one-off
    set-up of the NumPy routines; make one untimed call before relying on it.
    """
    if not cpus:
        return _median_of_pieces()
    mask = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append(_median_of_pieces())
    finally:
        os.sched_setaffinity(0, mask)
    return statistics.mean(speeds)

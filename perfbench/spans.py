"""In-memory span recorder and the wrappers that feed it.

Spans are recorded around the public functions of every alphareg module.
Each wrapper is installed at the module attributes the callers look the
function up by (``selection.fit_alpha_regression``, ``run.loocv_alpha``, ...),
so the program itself is unchanged and an untraced run installs nothing.

A span names its parent: the span open on the same thread when it started,
or, for a work item handed to ``parallel_map``, the map's own span.  A span's
self time is its duration minus the part of it that its children cover; when
children run concurrently on worker threads they can cover the same instant,
and that doubly covered time is reported as overlap, so that

    sum(self times) - overlap + unaccounted == wall time

holds exactly for every traced call.
"""

import dataclasses
import functools
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    t0: float
    t1: float = math.nan
    info: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self):
        return self.t1 - self.t0


class Recorder:
    """Thread-safe store of finished spans plus a per-thread stack of open ones."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, parent=None, layer=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, parent, name, layer or name.split(".")[0],
                    time.perf_counter())
        stack.append(span)
        return span

    def close(self, span):
        span.t1 = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)


def _wrap(recorder, name, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                after(recorder, span, args, out)
            return out
        finally:
            recorder.close(span)
    return traced


def _after_residual_system(recorder, span, args, system):
    """Trace the residual and Jacobian callables the solver will call."""
    jac_bytes = system.n_residuals * system.n_params * 8
    res = _wrap(recorder, "regression.residual", system.residual_fn)

    def count_bytes(_rec, jspan, _args, _out):
        jspan.info["bytes"] = jac_bytes

    jac = _wrap(recorder, "regression.jacobian", system.jacobian_fn, count_bytes)
    system.residual_fn, system.jacobian_fn = res, jac


def _after_lm(recorder, span, args, result):
    system = args[0]
    n, p = system.n_residuals, system.n_params
    span.info.update(
        iterations=result.iterations,
        rejections=result.rejections,
        max_iter=int(result.converged_by.value == "max_iter"),
        # every counted iteration forms J'J once: 2*N*P^2 flops
        flop=result.iterations * 2 * n * p * p,
    )


def _after_load(recorder, span, args, out):
    span.info["rows"] = int(out[0].shape[0])


# (span name, module, function, post-call hook)
TARGETS = (
    ("run.run_fit", "run", "run_fit", None),
    ("cli.main", "cli", "main", None),
    ("datasets.load_dataset", "datasets", "load_dataset", _after_load),
    ("selection.loocv", "selection", "loocv_alpha", None),
    ("selection.loocv", "selection", "loocv_slx", None),
    ("selection.loocv", "selection", "loocv_gwar", None),
    ("selection.default_h_grid", "selection", "default_h_grid", None),
    ("regression.fit", "regression", "fit_alpha_regression", None),
    ("regression.residual_system", "regression", "residual_system",
     _after_residual_system),
    ("optim.lm", "optim", "levenberg_marquardt", _after_lm),
    ("spatial.contiguity_matrix", "spatial", "contiguity_matrix", None),
    ("spatial.pairwise_chordal_sq", "spatial", "pairwise_chordal_sq", None),
    ("spatial.kernel_weights", "spatial", "gaussian_kernel_weights", None),
    ("spatial.kernel_weights", "spatial", "kernel_weights_at", None),
    ("spatial.fit_gwar", "spatial", "fit_gwar", None),
    ("spatial.fit_alpha_slx", "spatial", "fit_alpha_slx", None),
    ("inference.sandwich", "inference", "sandwich_covariance", None),
    ("inference.bootstrap", "inference", "bootstrap_covariance", None),
    ("inference.bootstrap", "inference", "bootstrap_ame_standard_errors", None),
    ("inference.margins", "inference", "average_marginal_effects", None),
    ("inference.margins", "inference", "slx_effects", None),
    ("inference.margins", "inference", "gwar_marginal_effects", None),
    ("simplex.alpha_transform", "simplex", "alpha_transform", None),
)


def _traced_parallel_map(recorder, original):
    """Span the map and each work item; items are parented to the map span."""

    @functools.wraps(original)
    def parallel_map(fn, items, threads=1):
        items = list(items)
        opener = recorder.current()
        caller = opener.layer if opener is not None else "_parallel"
        span = recorder.open("_parallel.parallel_map")
        span.info.update(items=len(items),
                         workers=threads if threads > 1 and len(items) > 1 else 1)

        def item(x):
            item_span = recorder.open("_parallel.item", parent=span.id, layer=caller)
            item_span.info["failed"] = 1
            try:
                out = fn(x)
                failed = out is None or (isinstance(out, float) and math.isinf(out))
                item_span.info["failed"] = int(failed)
                return out
            finally:
                recorder.close(item_span)

        try:
            return original(item, items, threads=threads)
        finally:
            recorder.close(span)

    return parallel_map


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._patched = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "alphareg" or n.startswith("alphareg.")]
        replacements = {}
        for name, mod, attr, after in TARGETS:
            original = getattr(sys.modules[f"alphareg.{mod}"], attr)
            replacements[id(original)] = (original,
                                          _wrap(self.recorder, name, original, after))
        par = sys.modules["alphareg._parallel"].parallel_map
        replacements[id(par)] = (par, _traced_parallel_map(self.recorder, par))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._patched.append((mod, key, value))
        return self.recorder

    def __exit__(self, *exc):
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()
        return False


# -- analysis -----------------------------------------------------------------

def self_times(spans):
    """Per-span (self time, overlap) from the parent links.

    Self time is the span's duration minus the union of its children's
    intervals (clipped to the span); overlap is the children's clipped
    durations minus that union, i.e. time covered by more than one child.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        ivs = sorted((max(c.t0, s.t0), min(c.t1, s.t1)) for c in children[s.id])
        covered = clipped = 0.0
        end = -math.inf
        for a, b in ivs:
            if b <= a:
                continue
            clipped += b - a
            if a > end:
                covered += b - a
                end = b
            elif b > end:
                covered += b - end
                end = b
        out[s.id] = (s.duration - covered, clipped - covered)
    return out


def layer_breakdown(spans, wall):
    """Self time per layer, total overlap and the unaccounted remainder."""
    per_span = self_times(spans)
    layers = defaultdict(float)
    overlap = 0.0
    for s in spans:
        own, ov = per_span[s.id]
        layers[s.layer] += own
        overlap += ov
    unaccounted = wall - (sum(layers.values()) - overlap)
    return dict(layers), overlap, unaccounted


def _has_ancestor(span, by_id, names):
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name in names:
            return True
        parent = by_id.get(parent.parent)
    return False


def layer_metrics(spans, wall):
    """The per-layer metrics of one traced call (counts exact, times in s)."""
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    layers, _, _ = layer_breakdown(spans, wall)

    def total(name):
        return math.fsum(s.duration for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def info(name, key):
        return sum(s.info.get(key, 0) for s in by_name[name])

    fits = by_name["regression.fit"]
    fit_ms = np.array([s.duration * 1e3 for s in fits]) if fits else np.zeros(1)
    items = by_name["_parallel.item"]
    maps = by_name["_parallel.parallel_map"]
    capacity = sum(s.duration * s.info["workers"] for s in maps)
    loocv_ids = {s.id for s in by_name["selection.loocv"]}
    iterations = info("optim.lm", "iterations")
    return {
        "run.run_fit.s": total("run.run_fit"),
        "cli.main.s": total("cli.main"),
        "cli.self_s": layers.get("cli", 0.0),
        "datasets.load_dataset.s": total("datasets.load_dataset"),
        "datasets.rows": info("datasets.load_dataset", "rows"),
        "selection.loocv.s": total("selection.loocv"),
        "selection.self_s": layers.get("selection", 0.0),
        "selection.folds": sum(1 for s in items if s.layer == "selection"),
        "selection.folds_failed": sum(s.info["failed"] for s in items
                                      if s.layer == "selection"),
        "selection.warm_fits": sum(
            1 for s in fits + by_name["spatial.fit_alpha_slx"]
            if s.parent in loocv_ids),
        "regression.fit.calls": len(fits),
        "regression.fit.s": total("regression.fit"),
        "regression.fit.ms_p50": float(np.percentile(fit_ms, 50)),
        "regression.fit.ms_p95": float(np.percentile(fit_ms, 95)),
        "regression.residual.calls": calls("regression.residual"),
        "regression.residual.s": total("regression.residual"),
        "regression.jacobian.calls": calls("regression.jacobian"),
        "regression.jacobian.s": total("regression.jacobian"),
        "regression.self_s": layers.get("regression", 0.0),
        "regression.jacobian.bytes_computed": info("regression.jacobian", "bytes"),
        "optim.lm.s": total("optim.lm"),
        "optim.self_s": layers.get("optim", 0.0),
        "optim.iterations": iterations,
        "optim.rejections": info("optim.lm", "rejections"),
        "optim.max_iter_hits": info("optim.lm", "max_iter"),
        "optim.iterations_per_solve": iterations / len(fits) if fits else 0.0,
        "optim.jtj.flop_computed": info("optim.lm", "flop"),
        "spatial.contiguity_matrix.calls": calls("spatial.contiguity_matrix"),
        "spatial.contiguity_matrix.s": total("spatial.contiguity_matrix"),
        "spatial.pairwise_chordal_sq.calls": calls("spatial.pairwise_chordal_sq"),
        "spatial.pairwise_chordal_sq.s": total("spatial.pairwise_chordal_sq"),
        "spatial.kernel_weights.calls": calls("spatial.kernel_weights"),
        "spatial.kernel_weights.s": total("spatial.kernel_weights"),
        "spatial.fit_gwar.s": total("spatial.fit_gwar"),
        "spatial.fit_alpha_slx.calls": calls("spatial.fit_alpha_slx"),
        "inference.sandwich.s": total("inference.sandwich"),
        "inference.bootstrap.s": total("inference.bootstrap"),
        "inference.bootstrap.solves": sum(
            1 for s in fits if _has_ancestor(s, by_id, {"inference.bootstrap"})),
        "inference.bootstrap.failed": sum(s.info["failed"] for s in items
                                          if s.layer == "inference"),
        "inference.margins.s": total("inference.margins"),
        "simplex.alpha_transform.calls": calls("simplex.alpha_transform"),
        "simplex.alpha_transform.s": total("simplex.alpha_transform"),
        "parallel.parallel_map.items": info("_parallel.parallel_map", "items"),
        "parallel.busy_ratio": (sum(s.duration for s in items) / capacity
                                if capacity > 0 else 0.0),
    }

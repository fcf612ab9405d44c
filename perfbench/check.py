"""Output check for every timed call.

A document passes when it parses as strict JSON (``NaN`` and ``Infinity``
are refused), its invariants hold, and, where a reference document for the
same workload and seed is stored, it matches that reference:

* the selected grid point is the same one, and every CV score agrees within
  ``SCORE_RTOL`` relative;
* every other number under ``hyperparameters``, ``fit``,
  ``marginal_effects`` and ``standard_errors`` agrees within
  ``sqrt(sse_rel_tol)`` of the largest magnitude in its array.  The solver
  stops once an accepted step lowers the SSE by less than ``sse_rel_tol``
  relative; near the optimum the SSE is quadratic in the parameters, so a
  relative SSE gap of ``sse_rel_tol`` allows parameter differences of order
  ``sqrt(sse_rel_tol)`` (1e-5 at the default 1e-10).  Standard errors and
  marginal effects are smooth functions of the parameters and get the same
  tolerance;
* ``config`` is the same apart from the thread count, floats within
  ``CONFIG_RTOL`` (the bandwidth grid of ``gwar-cv`` is computed from the
  coordinates).
"""

import json
import math
import re

import numpy as np

ROW_SUM_TOL = 1e-12
EFFECT_SUM_TOL = 1e-12
MAX_FAILED_REPLICATE_SHARE = 0.2
SCORE_RTOL = 1e-9
CONFIG_RTOL = 1e-12
COMPARED_SECTIONS = ("hyperparameters", "fit", "marginal_effects", "standard_errors")
SKIPPED_KEYS = {"iterations", "converged_by"}


class CheckError(ValueError):
    pass


def _reject_constant(name):
    raise CheckError(f"document contains {name}, which strict JSON forbids")


def parse_strict(text):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"document is not valid JSON: {exc}") from None


def check_document(text, fitted, reference=None):
    """Problems found in one call's output; an empty list means it passed."""
    try:
        doc = parse_strict(text)
    except CheckError as exc:
        return [str(exc)]
    problems = []
    if fitted is None or not np.all(np.isfinite(fitted)):
        problems.append("fitted compositions missing or non-finite")
    elif np.max(np.abs(fitted.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
        problems.append("fitted rows do not sum to 1")
    for table_name, table in (doc.get("marginal_effects") or {}).items():
        for cov, row in table.items():
            if abs(math.fsum(row)) > EFFECT_SUM_TOL:
                problems.append(f"marginal effects {table_name}/{cov} do not sum to 0")
    problems += _check_selection(doc.get("selection"))
    se = doc.get("standard_errors")
    if se and se.get("kind") == "bootstrap":
        attempted = se["replicates"] + se["failed_replicates"]
        if se["failed_replicates"] > MAX_FAILED_REPLICATE_SHARE * attempted:
            problems.append("more than 20% of bootstrap replicates failed")
    if reference is not None:
        problems += compare_to_reference(doc, reference)
    return problems


def _grid_axes(sel):
    return [sel[key] for key in ("alphas", "ks", "hs") if key in sel]


def _best_index(sel):
    scores = np.asarray(sel["scores"], dtype=np.float64)
    return np.unravel_index(int(np.argmin(scores)), scores.shape)


def _check_selection(sel):
    if sel is None:
        return []
    axes = _grid_axes(sel)
    scores = np.asarray(sel["scores"], dtype=np.float64)
    if scores.shape != tuple(len(a) for a in axes):
        return ["selection scores do not match the grid shape"]
    expected = [axis[i] for axis, i in zip(axes, _best_index(sel))]
    if list(sel["best"]) != expected:
        return [f"selection best {sel['best']} is not the argmin {expected}"]
    return []


def compare_to_reference(doc, ref):
    problems = []
    if not _same(_without_threads(doc.get("config")),
                 _without_threads(ref.get("config"))):
        problems.append("config differs from the reference")
    sel, ref_sel = doc.get("selection"), ref.get("selection")
    if (sel is None) != (ref_sel is None):
        problems.append("selection present in only one of document and reference")
    elif sel is not None:
        if _best_index(sel) != _best_index(ref_sel):
            problems.append(f"selected {sel['best']}, reference {ref_sel['best']}")
        problems += _compare_arrays("selection.scores", sel["scores"],
                                    ref_sel["scores"], SCORE_RTOL, relative=True)
    tol = math.sqrt(ref["config"]["solver"]["sse_rel_tol"])
    got, want = {}, {}
    for section in COMPARED_SECTIONS:
        _flatten(doc.get(section), section, got)
        _flatten(ref.get(section), section, want)
    if got.keys() != want.keys():
        missing = sorted(set(want) ^ set(got))[:3]
        return problems + [f"document layout differs from the reference at {missing}"]
    groups = {}
    for path in want:
        groups.setdefault(re.sub(r"\[\d+\]", "", path), []).append(path)
    for group, paths in groups.items():
        problems += _compare_arrays(group, [got[p] for p in paths],
                                    [want[p] for p in paths], tol, relative=False)
    return problems


def _without_threads(config):
    """The config echo minus the thread count, which must not change results."""
    return {k: v for k, v in (config or {}).items() if k != "threads"}


def _same(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=CONFIG_RTOL)
    return a == b


def _flatten(obj, path, out):
    """Numeric leaves keyed by path; lists index as ``[i]``."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key not in SKIPPED_KEYS:
                _flatten(value, f"{path}.{key}", out)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _flatten(value, f"{path}[{i}]", out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[path] = float(obj)


def _compare_arrays(name, got, want, tol, relative):
    """Elementwise relative comparison, or absolute against the array's scale."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} differs from reference {want.shape}"]
    scale = np.abs(want) if relative else np.max(np.abs(want), initial=0.0)
    err = np.abs(got - want)
    if not np.all(err <= tol * scale):
        worst = float(np.max(err))
        return [f"{name}: differs from the reference by {worst:.3e} (tolerance "
                f"{tol:.1e} {'relative' if relative else 'of the largest entry'})"]
    return []

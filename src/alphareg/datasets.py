"""Dataset ingestion and synthetic data generation.

Input files are UTF-8 comma-separated values with a header row and decimal
points; a leading byte-order mark is dropped, a file that is not UTF-8 is a
:class:`DataError`, and a requested column must be named once in the
header.  Composition columns are closed to proportions at ingestion: rows
already summing to 1 within 1e-10 are taken as-is (so a generate/load round
trip is exact), anything else is re-closed with a logged warning.  Row sums
near 100 are flagged as percentages in that warning.  Zero cells are kept
as zeros, never imputed.

The generator draws covariates and known coefficients, builds mean
compositions from the multinomial-logit map, and perturbs them with
independent Gaussian noise in transformed space before inverting back to
the simplex, so the fitted model is correctly specified for the synthetic
data.  For alpha > 0, components pushed below zero by the inversion are
clipped to exact zeros; for alpha <= 0 noise that leaves the transform's
image is an error.  A ground-truth sidecar (JSON) records coefficients and
settings.  :func:`write_csv` is the one CSV writer, of data, predictions and
tables alike: floats with 17 significant digits, so reloading is exact.
:func:`write_json` is the one JSON writer, of result documents and the
sidecar alike: strict JSON, indented by 2, with a trailing newline.
The fit document's ``dataset`` block is written by :func:`dataset_record`
and read back by :func:`record_columns` and :func:`load_training`, which
checks the training file's hash.
"""

import contextlib
import csv
import hashlib
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .exceptions import (
    DataError,
    InvalidParameters,
    MissingColumn,
    NonNumericCell,
    NumericalError,
    TrainingDataChanged,
    check_integer,
    check_real,
)
from .regression import fitted_mean
from .simplex import (ROW_SUM_TOL, _check_alpha, alpha_transform, alpha_transform_inverse,
                      closure, helmert_submatrix)
from .spatial import GeoCoordinates, _check_k, neighbor_lag, neighbor_table

log = logging.getLogger(__name__)


@dataclass
class DatasetSpec:
    """Which CSV columns hold the composition, covariates, and coordinates."""

    path: str
    composition_columns: list
    covariate_columns: list
    lat_column: Optional[str] = None
    lon_column: Optional[str] = None

    def __post_init__(self):
        if len(self.composition_columns) < 2:
            raise InvalidParameters("need at least 2 composition columns")
        overlap = set(self.composition_columns) & set(self.covariate_columns)
        if overlap:
            raise InvalidParameters(f"columns used twice: {sorted(overlap)}")


@contextlib.contextmanager
def path_errors(path, action):
    """An OSError in the block, or text that is not UTF-8, as a
    :class:`DataError`: cannot ``action`` ``path``."""
    try:
        yield
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot {action} {path}: {exc}") from None


def _read_table(path):
    with path_errors(path, "read"), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path} is empty") from None
        rows = [row for row in reader if row]
    return [h.strip() for h in header], rows


def _column(header, rows, name, path):
    count = header.count(name)
    if not count:
        raise MissingColumn(f"column {name!r} not found in {path}")
    if count > 1:
        raise DataError(f"column {name!r} appears {count} times in the header of {path}")
    j = header.index(name)
    cells = [row[j].strip() if j < len(row) else "" for row in rows]
    out = np.array([_parse_cell(cell) for cell in cells], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(out))  # "nan" and "inf" parse, but are no data
    if bad.size:
        i = bad[0]
        raise NonNumericCell(
            f"cell at data row {i + 1}, column {name!r} is not a finite "
            f"number: {cells[i]!r}")
    return out


def _parse_cell(cell):
    """The cell as Python's ``float`` reads it, NaN when it reads no number."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def load_dataset(spec):
    """Load (compositions, design matrix, coordinates) from a CSV file.

    Returns ``(Y, X, coords)`` where ``X`` and ``coords`` are as in
    :func:`load_covariates`; a file without data rows is a :class:`DataError`.
    """
    header, rows = _read_table(spec.path)
    if not rows:  # nothing to fit; new rows to predict at may be none (load_covariates)
        raise DataError(f"{spec.path} has a header but no data rows")
    Y_raw = np.column_stack(
        [_column(header, rows, c, spec.path) for c in spec.composition_columns]
    )
    sums = Y_raw.sum(axis=1)
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    Y = Y_raw.copy()
    if np.any(off):
        if np.all(np.abs(sums - 100.0) < 1.0):
            log.warning(
                "composition rows sum to ~100; treating values as percentages "
                "and closing to proportions"
            )
        else:
            log.warning(
                "%d composition rows do not sum to 1; re-closing them",
                int(off.sum()),
            )
        Y[off] = closure(Y_raw[off])
    return (Y, *_covariates(header, rows, spec))


def load_covariates(spec):
    """Load (design matrix, coordinates) from a CSV file, which need not hold
    the composition columns (new observations to predict at).

    ``X`` has an intercept column prepended and ``coords`` is ``None`` unless
    both coordinate columns are named.
    """
    return _covariates(*_read_table(spec.path), spec)


def _covariates(header, rows, spec):
    covs = [_column(header, rows, c, spec.path) for c in spec.covariate_columns]
    X = np.column_stack([np.ones(len(rows))] + covs)

    coords = None
    if spec.lat_column is not None or spec.lon_column is not None:
        if spec.lat_column is None or spec.lon_column is None:
            raise MissingColumn("both latitude and longitude columns are required")
        coords = GeoCoordinates.from_degrees(
            _column(header, rows, spec.lat_column, spec.path),
            _column(header, rows, spec.lon_column, spec.path),
        )
    return X, coords


RECORD_COLUMNS = ("composition_columns", "covariate_columns", "lat_column", "lon_column")


def dataset_record(spec):
    """The fit document's ``dataset`` block for the data ``spec`` names: the
    file's path as given and resolved, its SHA-256, and the columns read."""
    return {"path": spec.path, "resolved_path": str(Path(spec.path).resolve()),
            "sha256": _sha256(spec.path)} | {c: getattr(spec, c) for c in RECORD_COLUMNS}


def record_columns(record, coordinates=True):
    """The columns a ``dataset`` block names, as :class:`DatasetSpec` keywords
    (the coordinate ones only with ``coordinates``); a missing one is a KeyError."""
    return {c: record[c] for c in (RECORD_COLUMNS if coordinates else RECORD_COLUMNS[:2])}


def load_training(record):
    """The data ``(Y, X, coords)`` of a ``dataset`` block, reloaded by its resolved
    path; a missing file, another hash, or a block without them (an older
    document) raises :class:`TrainingDataChanged`."""
    path = record.get("resolved_path")
    try:
        same = _sha256(path) == record["sha256"]
    except (OSError, KeyError, TypeError) as exc:
        raise TrainingDataChanged(f"cannot check training file {path}: {exc}") from None
    if not same:
        raise TrainingDataChanged(f"training file {path} changed since the fit")
    return load_dataset(DatasetSpec(path=path, **record_columns(record)))


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- synthetic data ------------------------------------------------------------

SPATIAL_MODES = ("none", "two_cluster", "slx")


def synthesize(n, D, p, alpha=0.5, noise_scale=0.0, spatial_mode="none", seed=0,
               slx_k=5):
    """Draw a synthetic dataset with known coefficients.

    Returns a dict with keys ``Y``, ``X`` (intercept included), ``coords``
    (None for mode "none"), ``B`` (true coefficients), ``gamma`` (mode
    "slx"), ``clusters`` (mode "two_cluster"), and the generator settings.
    With ``noise_scale=0`` the responses are exactly the model means.
    ``n``, ``D`` and ``p`` must be integers of at least 10, 2 and 1,
    ``alpha`` must lie in [-1, 1] and ``slx_k``, in every mode since the
    settings record it, must be an integer in [1, n-1] (``spatial._check_k``,
    so :class:`InvalidK` when out of range); anything else is
    :class:`InvalidParameters`.
    """
    alpha = _check_alpha(alpha)  # at any noise, so NaN never reaches the sidecar
    for name, value, least in (("n", n, 10), ("D", D, 2), ("p", p, 1)):
        check_integer(name, value, least)
    if spatial_mode not in SPATIAL_MODES:
        raise InvalidParameters(f"spatial_mode must be one of {SPATIAL_MODES}")
    _check_k(slx_k, n - 1, "neighbor count slx_k", f" for {n} locations")
    check_real("noise_scale", noise_scale, "[0, inf)")
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    d = D - 1
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p))])
    B = np.vstack([
        rng.uniform(-0.3, 0.3, size=(1, d)),
        rng.uniform(-0.8, 0.8, size=(p, d)),
    ])

    coords = None
    gamma = None
    clusters = None
    if spatial_mode == "none":
        mu = fitted_mean(X, B)
    elif spatial_mode == "slx":
        coords = _random_coords(rng, n)
        lag = neighbor_lag(*neighbor_table(coords, slx_k), X)
        gamma_rows = rng.uniform(-0.5, 0.5, size=(p, d))
        gamma = np.vstack([np.zeros((1, d)), gamma_rows])
        mu = fitted_mean(np.hstack([X, lag]), np.vstack([B, gamma_rows]))
    else:  # two_cluster: one covariate's coefficient flips sign across clusters
        coords, clusters = _cluster_coords(rng, n)
        B_flip = B.copy()
        B_flip[1] = -B_flip[1]
        mu = np.where(clusters[:, None] == 0, fitted_mean(X, B), fitted_mean(X, B_flip))

    if noise_scale == 0.0:
        Y = mu
    else:
        Y = _perturb_transformed(mu, alpha, noise_scale, rng)

    return {
        "Y": Y,
        "X": X,
        "coords": coords,
        "B": B,
        "gamma": gamma,
        "clusters": clusters,
        "settings": {
            "n": n, "D": D, "p": p, "alpha": float(alpha),
            "noise_scale": float(noise_scale), "spatial_mode": spatial_mode,
            "seed": int(seed), "slx_k": int(slx_k),
        },
    }


def _random_coords(rng, n):
    lat = rng.uniform(36.0, 41.0, size=n)
    lon = rng.uniform(20.0, 26.0, size=n)
    return GeoCoordinates.from_degrees(lat, lon)


def _cluster_coords(rng, n):
    clusters = (np.arange(n) >= n // 2).astype(int)
    centers = np.array([[37.0, 21.0], [40.0, 25.0]])
    lat = centers[clusters, 0] + rng.uniform(-0.5, 0.5, size=n)
    lon = centers[clusters, 1] + rng.uniform(-0.5, 0.5, size=n)
    return GeoCoordinates.from_degrees(lat, lon), clusters


def _perturb_transformed(mu, alpha, scale, rng):
    """Add Gaussian noise in transformed space and invert to the simplex.

    For alpha > 0 the inversion clips components pushed below zero to exact
    zeros, producing datasets with natural zeros at larger noise scales.
    For alpha <= 0 a zero cannot be inverted, and noise that leaves the
    transform's image raises :class:`OutOfImage`.
    """
    n, D = mu.shape
    z = alpha_transform(mu, alpha) + scale * rng.standard_normal((n, D - 1))
    if alpha <= 0:
        return alpha_transform_inverse(z, alpha)
    y = np.maximum((alpha * (z @ helmert_submatrix(D)) + 1.0) / D, 0.0) ** (1.0 / alpha)
    return y / y.sum(axis=1, keepdims=True)


def write_csv(path, header, rows):
    """Rows to the CSV file ``path``, or to stdout when it is None; a float
    is written with 17 significant digits."""
    with path_errors(path, "write"), (open(path, "w", newline="", encoding="utf-8")
                                      if path else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def write_json(path, doc):
    """``doc`` as strict JSON to the file ``path``, or to stdout when it is
    None, indented by 2 with a trailing newline.  A NaN or an infinity in
    it, which strict JSON forbids, is a :class:`NumericalError`, and nothing
    is written."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"result document is not valid JSON: {exc}") from None
    if path:
        with path_errors(path, "write"):
            Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def generate_synthetic(out_dir=".", **settings):
    """Write a synthetic dataset plus its ground-truth sidecar.

    ``settings`` are :func:`synthesize`'s arguments, with its defaults.
    Produces ``data.csv`` (compositions, covariates, and coordinates when
    spatial) and ``truth.json`` in ``out_dir``; returns both paths.  Where
    either path is a directory, nothing is synthesized or written
    (:class:`DataError`).
    """
    out = Path(out_dir)
    data_path = out / "data.csv"
    truth_path = out / "truth.json"
    for path in (data_path, truth_path):
        if path.is_dir():
            raise DataError(f"cannot write {path}: it is a directory")
    sim = synthesize(**settings)
    with path_errors(out, "write"):
        out.mkdir(parents=True, exist_ok=True)

    comp_cols = [f"y{j + 1}" for j in range(sim["Y"].shape[1])]
    cov_cols = [f"x{j + 1}" for j in range(sim["X"].shape[1] - 1)]
    header = comp_cols + cov_cols
    columns = [sim["Y"], sim["X"][:, 1:]]
    if sim["coords"] is not None:
        header += ["lat", "lon"]
        columns += [sim["coords"].lat[:, None], sim["coords"].lon[:, None]]
    write_csv(data_path, header, np.hstack(columns).tolist())

    truth = {
        "settings": sim["settings"],
        "composition_columns": comp_cols,
        "covariate_columns": cov_cols,
        "B": sim["B"].tolist(),
        "gamma": None if sim["gamma"] is None else sim["gamma"].tolist(),
        "clusters": None if sim["clusters"] is None else sim["clusters"].tolist(),
    }
    write_json(truth_path, truth)
    return str(data_path), str(truth_path)

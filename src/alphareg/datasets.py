"""Dataset ingestion and synthetic data generation.

Input files are UTF-8 comma-separated values with a header row and decimal
points; a leading byte-order mark is dropped, and a requested column must be
named once in the header.  Composition columns are closed to proportions at ingestion: rows
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
"""

import contextlib
import csv
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
    check_integer,
    check_real,
)
from .regression import fitted_mean
from .simplex import (ROW_SUM_TOL, _check_alpha, alpha_transform, alpha_transform_inverse,
                      closure, helmert_submatrix)
from .spatial import GeoCoordinates, neighbor_lag, neighbor_table

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
    """An OSError in the block as a :class:`DataError`: cannot ``action`` ``path``."""
    try:
        yield
    except OSError as exc:
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
    :func:`load_covariates`.
    """
    header, rows = _read_table(spec.path)
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


# -- synthetic data ------------------------------------------------------------

SPATIAL_MODES = ("none", "two_cluster", "slx")


def synthesize(n, D, p, alpha=0.5, noise_scale=0.0, spatial_mode="none", seed=0,
               slx_k=5):
    """Draw a synthetic dataset with known coefficients.

    Returns a dict with keys ``Y``, ``X`` (intercept included), ``coords``
    (None for mode "none"), ``B`` (true coefficients), ``gamma`` (mode
    "slx"), ``clusters`` (mode "two_cluster"), and the generator settings.
    With ``noise_scale=0`` the responses are exactly the model means.
    ``alpha`` must lie in [-1, 1] and ``slx_k``, in every mode since the
    settings record it, must be an integer in [1, n-1]; anything else is
    :class:`InvalidParameters`.
    """
    alpha = _check_alpha(alpha)  # at any noise, so NaN never reaches the sidecar
    if n < 10 or D < 2 or p < 1:
        raise InvalidParameters("need n >= 10, D >= 2, p >= 1")
    if spatial_mode not in SPATIAL_MODES:
        raise InvalidParameters(f"spatial_mode must be one of {SPATIAL_MODES}")
    check_integer(f"neighbor count slx_k (1 <= k <= {n - 1} for {n} locations)", slx_k)
    if not 1 <= slx_k <= n - 1:
        raise InvalidParameters(
            f"neighbor count slx_k must satisfy 1 <= k <= {n - 1} (an integer) for "
            f"{n} locations, got {slx_k!r}")
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


def generate_synthetic(out_dir=".", **settings):
    """Write a synthetic dataset plus its ground-truth sidecar.

    ``settings`` are :func:`synthesize`'s arguments, with its defaults.
    Produces ``data.csv`` (compositions, covariates, and coordinates when
    spatial) and ``truth.json`` in ``out_dir``; returns both paths.
    """
    sim = synthesize(**settings)
    out = Path(out_dir)
    with path_errors(out, "write"):
        out.mkdir(parents=True, exist_ok=True)
    data_path = out / "data.csv"
    truth_path = out / "truth.json"

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
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)
    return str(data_path), str(truth_path)

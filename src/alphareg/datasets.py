"""Dataset ingestion and synthetic data generation.

Input files are UTF-8 comma-separated values with a header row and decimal
points.  Composition columns are closed to proportions at ingestion: rows
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
settings.
"""

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .exceptions import (
    DataError,
    InvalidParameters,
    MissingColumn,
    NonNumericCell,
)
from .regression import fitted_mean
from .simplex import (ROW_SUM_TOL, alpha_transform, alpha_transform_inverse, closure,
                      helmert_submatrix)
from .spatial import GeoCoordinates, contiguity_matrix, spatial_lag

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


def _read_table(path):
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path} is empty") from None
        rows = [row for row in reader if row]
    return [h.strip() for h in header], rows


def _column(header, rows, name, path):
    if name not in header:
        raise MissingColumn(f"column {name!r} not found in {path}")
    j = header.index(name)
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        cell = row[j].strip() if j < len(row) else ""
        try:
            out[i] = float(cell)
        except ValueError:
            out[i] = np.nan
        if not np.isfinite(out[i]):  # "nan" and "inf" parse, but are no data
            raise NonNumericCell(
                f"cell at data row {i + 1}, column {name!r} is not a finite "
                f"number: {cell!r}")
    return out


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


def synthesize(n, D, p, alpha, noise_scale=0.0, spatial_mode="none", seed=0,
               slx_k=5):
    """Draw a synthetic dataset with known coefficients.

    Returns a dict with keys ``Y``, ``X`` (intercept included), ``coords``
    (None for mode "none"), ``B`` (true coefficients), ``gamma`` (mode
    "slx"), ``clusters`` (mode "two_cluster"), and the generator settings.
    With ``noise_scale=0`` the responses are exactly the model means.
    """
    if n < 10 or D < 2 or p < 1:
        raise InvalidParameters("need n >= 10, D >= 2, p >= 1")
    if spatial_mode not in SPATIAL_MODES:
        raise InvalidParameters(f"spatial_mode must be one of {SPATIAL_MODES}")
    if noise_scale < 0:
        raise InvalidParameters("noise_scale must be >= 0")
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
        W = contiguity_matrix(coords, min(slx_k, n - 1))
        gamma_rows = rng.uniform(-0.5, 0.5, size=(p, d))
        gamma = np.vstack([np.zeros((1, d)), gamma_rows])
        mu = fitted_mean(np.hstack([X, spatial_lag(W, X)]), np.vstack([B, gamma_rows]))
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


def generate_synthetic(n, D, p, alpha, noise_scale=0.0, spatial_mode="none",
                       seed=0, out_dir=".", slx_k=5):
    """Write a synthetic dataset plus its ground-truth sidecar.

    Produces ``data.csv`` (compositions, covariates, and coordinates when
    spatial) and ``truth.json`` in ``out_dir``; returns both paths.  Values
    are serialized with 17 significant digits so reloading is exact.
    """
    sim = synthesize(n, D, p, alpha, noise_scale, spatial_mode, seed, slx_k)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "data.csv"
    truth_path = out / "truth.json"

    comp_cols = [f"y{j + 1}" for j in range(D)]
    cov_cols = [f"x{j + 1}" for j in range(p)]
    header = comp_cols + cov_cols
    columns = [sim["Y"][:, j] for j in range(D)]
    columns += [sim["X"][:, 1 + j] for j in range(p)]
    if sim["coords"] is not None:
        header += ["lat", "lon"]
        columns += [sim["coords"].lat, sim["coords"].lon]

    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            writer.writerow([f"{col[i]:.17g}" for col in columns])

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

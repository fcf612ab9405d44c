"""Command-line interface.

Subcommands: ``fit`` (select hyper-parameters if unset, fit, emit a JSON
document), ``cv`` (selection scores only), ``predict`` (new-data means from
a saved document), ``margins`` (marginal-effect tables), and ``generate``
(synthetic datasets with a ground-truth sidecar).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import csv
import hashlib
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .datasets import DatasetSpec, generate_synthetic, load_covariates, load_dataset
from .exceptions import (
    AlphaRegError,
    DataError,
    InvalidParameters,
    NumericalError,
    TrainingDataChanged,
)
from .optim import LmOptions
from .regression import fitted_mean, kld
from .run import MODELS, RunConfig, run_cv, run_fit
from .selection import CvGrid
from .spatial import (GwarFit, local_fitted_mean, neighbor_lag, neighbor_table,
                      predict_gwar, row_weights)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_list(text):
    return [c.strip() for c in text.split(",") if c.strip()]


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _threads(text):
    """A worker-thread count, or ``auto`` (0) for one per CPU."""
    if text == "auto":
        return 0
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer, got {text!r}") from None


def _add_dataset_args(sp):
    sp.add_argument("--data", required=True, help="CSV file with a header row")
    sp.add_argument("--composition-cols", required=True, type=_csv_list,
                    help="comma-separated response column names")
    sp.add_argument("--covariate-cols", required=True, type=_csv_list,
                    help="comma-separated covariate column names")
    sp.add_argument("--lat-col", default=None)
    sp.add_argument("--lon-col", default=None)


def _add_model_args(sp):
    """Model settings; one left out of the command line keeps the default of
    its :class:`RunConfig`, :class:`CvGrid` or :class:`LmOptions` field."""
    sp.add_argument("--model", choices=MODELS)
    sp.add_argument("--alpha", type=float,
                    help="fix the transform power instead of cross-validating")
    sp.add_argument("--k", type=int, help="fix the neighbor count")
    sp.add_argument("--h", type=float, help="fix the bandwidth")
    sp.add_argument("--alphas", type=_float_list, help="comma-separated alpha grid")
    sp.add_argument("--ks", type=_int_list)
    sp.add_argument("--hs", type=_float_list)
    sp.add_argument("--max-iterations", type=int)
    sp.add_argument("--sse-rel-tol", type=float)
    sp.add_argument("--grad-inf-tol", type=float)
    sp.add_argument("--out", default=None, help="result path (default stdout)")


def _add_se_args(sp):
    sp.add_argument("--with-se", action="store_true",
                    help="include sandwich standard errors")
    sp.add_argument("--bootstrap-replicates", type=int,
                    help="use a pairs bootstrap of this size for the SEs")
    sp.add_argument("--seed", type=int, help="bootstrap seed")
    sp.add_argument("--threads", type=_threads, default="auto",
                    help="bootstrap worker threads (or 'auto'); "
                         "ALPHAREG_THREADS overrides")


def build_parser():
    parser = _Parser(prog="alphareg",
                     description="Compositional regression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # an option not given sets no attribute (SUPPRESS), see _run_config
    fit = sub.add_parser("fit", help="select, fit, and report",
                         argument_default=argparse.SUPPRESS)
    _add_dataset_args(fit)
    _add_model_args(fit)
    _add_se_args(fit)
    fit.add_argument("--csv-dir", default=None,
                     help="additionally export tables as CSV files here")

    cv = sub.add_parser("cv", help="cross-validation scores only",
                        argument_default=argparse.SUPPRESS)
    _add_dataset_args(cv)
    _add_model_args(cv)

    margins = sub.add_parser("margins", help="marginal-effect tables",
                             argument_default=argparse.SUPPRESS)
    _add_dataset_args(margins)
    _add_model_args(margins)
    _add_se_args(margins)

    predict = sub.add_parser("predict", help="predict compositions for new data")
    predict.add_argument("--model-doc", required=True,
                         help="result document produced by `fit`")
    predict.add_argument("--data", required=True, help="CSV of new observations")
    predict.add_argument("--out", default=None, help="output CSV (default stdout)")

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--components", type=int, required=True)
    gen.add_argument("--covariates", type=int, required=True)
    gen.add_argument("--alpha", type=float, default=0.5)
    gen.add_argument("--noise-scale", type=float, default=0.0)
    gen.add_argument("--spatial-mode", choices=("none", "two_cluster", "slx"),
                     default="none")
    gen.add_argument("--slx-k", type=int, default=5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", default=".")
    return parser


def _dataset_spec(args):
    return DatasetSpec(
        path=args.data,
        composition_columns=args.composition_cols,
        covariate_columns=args.covariate_cols,
        lat_column=args.lat_col,
        lon_column=args.lon_col,
    )


def _run_config(args):
    """The run settings given on the command line; the rest keep their defaults."""
    given = vars(args)

    def settings(cls):
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    return RunConfig(**settings(RunConfig), grid=CvGrid(**settings(CvGrid)),
                     solver=LmOptions(**settings(LmOptions)))


def _emit(doc, out_path):
    try:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or infinity, which strict JSON forbids
        raise NumericalError(f"result document is not valid JSON: {exc}") from None
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def _export_tables(doc, fitted, csv_dir, D):
    out = Path(csv_dir)
    out.mkdir(parents=True, exist_ok=True)
    comp = [f"component_{j + 1}" for j in range(D)]
    corr = doc["fit"]["observed_fitted_correlation"]
    # a constant column has no correlation (None): its cell stays empty
    _write_csv(out / "correlations.csv", comp,
               [[None if v is None else float(v) for v in corr]])
    for name, table in doc["marginal_effects"].items():
        rows = [[cov] + [float(v) for v in vals] for cov, vals in table.items()]
        _write_csv(out / f"{name}.csv", ["covariate"] + comp, rows)
    _write_csv(out / "fitted.csv", comp,
               [[float(v) for v in row] for row in fitted])


def _run(args):
    Y, X, coords = load_dataset(_dataset_spec(args))
    return run_fit(_run_config(args), Y, X, coords,
                   covariate_names=args.covariate_cols)


def _cmd_fit(args):
    doc, fit = _run(args)
    doc["dataset"] = {
        "path": args.data,
        "resolved_path": str(Path(args.data).resolve()),
        "sha256": _sha256(args.data),
        "composition_columns": args.composition_cols,
        "covariate_columns": args.covariate_cols,
        "lat_column": args.lat_col,
        "lon_column": args.lon_col,
    }
    if args.csv_dir:
        _export_tables(doc, fit.fitted, args.csv_dir, fit.fitted.shape[1])
    _emit(doc, args.out)
    return 0


def _cmd_margins(args):
    doc, _ = _run(args)
    _emit({
        "hyperparameters": doc["hyperparameters"],
        "marginal_effects": doc["marginal_effects"],
        "standard_errors": doc["standard_errors"],
        "covariate_names": args.covariate_cols,
    }, args.out)
    return 0


def _cmd_cv(args):
    config = _run_config(args)
    selection, _ = run_cv(config, *load_dataset(_dataset_spec(args)))
    _emit({"model": config.model, "selection": selection}, args.out)
    return 0


def _cmd_predict(args):
    model, columns, dataset, params = _read_model_doc(args.model_doc)
    new_spec = DatasetSpec(
        path=args.data,
        composition_columns=columns["composition_columns"],
        covariate_columns=columns["covariate_columns"],
        lat_column=columns.get("lat_column"),
        lon_column=columns.get("lon_column"),
    )
    X_new, coords_new = load_covariates(new_spec)

    if model == "alpha":
        mu = fitted_mean(X_new, params["coefficients"])
    elif model == "slx":
        mu = _predict_slx(params, dataset, X_new, coords_new)
    else:
        mu = _predict_gwar_from_doc(params, dataset, X_new, coords_new)

    comp = columns["composition_columns"]
    rows = [[float(v) for v in row] for row in mu]
    if args.out:
        _write_csv(args.out, comp, rows)
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(comp)
        writer.writerows([f"{v:.17g}" for v in row] for row in rows)
    return 0


def _read_model_doc(path):
    """The model, dataset columns, dataset block and fitted parameters that
    ``predict`` reads from a fit document.

    A missing or non-JSON file, or any missing or malformed field, is a
    :class:`DataError` naming the file.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        model, dataset, fit = doc["config"]["model"], doc["dataset"], doc["fit"]
        keys = ["composition_columns", "covariate_columns"]
        if model != "alpha":
            keys += ["lat_column", "lon_column"]
        columns = {key: dataset[key] for key in keys}
        if model == "alpha":
            params = {"coefficients": np.asarray(fit["coefficients"], dtype=np.float64)}
        elif model == "slx":
            params = {"coefficients": np.asarray(fit["coefficients"], dtype=np.float64),
                      "k": int(doc["hyperparameters"]["k"])}
        else:
            params = {
                "local": np.asarray(fit["local_coefficients"], dtype=np.float64),
                "global": np.asarray(fit["global_coefficients"], dtype=np.float64),
                "alpha": float(doc["hyperparameters"]["alpha"]),
                "h": float(doc["hyperparameters"]["h"]),
                "opts": LmOptions(**doc["config"]["solver"]),
            }
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise DataError(
            f"model document {path} is not readable as a fit result: "
            f"{type(exc).__name__}: {exc}") from None
    return model, columns, dataset, params


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _train_data(dataset):
    """Reload the training file by its resolved path, checking its hash."""
    path = dataset.get("resolved_path")
    try:  # a document from before paths and hashes were recorded fails here too
        same = _sha256(path) == dataset["sha256"]
    except (OSError, KeyError, TypeError) as exc:
        raise TrainingDataChanged(f"cannot check training file {path}: {exc}") from None
    if not same:
        raise TrainingDataChanged(f"training file {path} changed since the fit")
    columns = ("composition_columns", "covariate_columns", "lat_column", "lon_column")
    return load_dataset(DatasetSpec(path=path, **{c: dataset[c] for c in columns}))


def _predict_slx(params, dataset, X_new, coords_new):
    """Lag each new row by its k nearest training locations, as fit-time W does."""
    if coords_new is None:
        raise InvalidParameters("prediction for this model needs coordinates")
    _, X_train, coords_train = _train_data(dataset)
    idx, d2 = neighbor_table(coords_train, params["k"], query=coords_new)
    lags = neighbor_lag(idx, row_weights(d2), X_train)
    return fitted_mean(np.hstack([X_new, lags]), params["coefficients"])


def _predict_gwar_from_doc(params, dataset, X_new, coords_new):
    """Rebuild the locally weighted fit from its document (no refitting)."""
    if coords_new is None:
        raise InvalidParameters("prediction for this model needs coordinates")
    Y_train, X_train, coords_train = _train_data(dataset)
    fitted = local_fitted_mean(X_train, params["local"])
    fit = GwarFit(
        local_coefficients=params["local"],
        alpha=params["alpha"],
        h=params["h"],
        fitted=fitted,
        kld=kld(Y_train, fitted),
        global_coefficients=params["global"],
        train_Y=Y_train,
        train_X=X_train,
        train_coords=coords_train,
        opts=params["opts"],
    )
    return predict_gwar(fit, X_new, coords_new)


def _cmd_generate(args):
    data_path, truth_path = generate_synthetic(
        n=args.n, D=args.components, p=args.covariates, alpha=args.alpha,
        noise_scale=args.noise_scale, spatial_mode=args.spatial_mode,
        seed=args.seed, out_dir=args.out_dir, slx_k=args.slx_k,
    )
    sys.stdout.write(json.dumps({"data": data_path, "truth": truth_path}) + "\n")
    return 0


def main(argv=None):
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code or 0)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "cv":
            return _cmd_cv(args)
        if args.command == "margins":
            return _cmd_margins(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "generate":
            return _cmd_generate(args)
        parser.error(f"unknown command {args.command!r}")
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except AlphaRegError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

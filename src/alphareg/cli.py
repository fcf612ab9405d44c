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
from pathlib import Path

import numpy as np

from .datasets import DatasetSpec, generate_synthetic, load_dataset
from .exceptions import (
    AlphaRegError,
    DataError,
    InvalidParameters,
    MissingColumn,
    NumericalError,
    TrainingDataChanged,
)
from .optim import LmOptions
from .regression import fitted_mean
from .run import RunConfig, run_fit
from .selection import CvGrid, select
from .spatial import (GeoCoordinates, neighbor_lag, neighbor_table, predict_gwar,
                      row_weights)
from ._parallel import resolve_threads
from .run import _selection_doc  # selection echo shared with full runs


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
    sp.add_argument("--model", choices=("alpha", "slx", "gwar"), default="alpha")
    sp.add_argument("--alpha", type=float, default=None,
                    help="fix the transform power instead of cross-validating")
    sp.add_argument("--k", type=int, default=None, help="fix the neighbor count")
    sp.add_argument("--h", type=float, default=None, help="fix the bandwidth")
    sp.add_argument("--alphas", type=_float_list, default=None,
                    help="comma-separated alpha grid")
    sp.add_argument("--ks", type=_int_list, default=None)
    sp.add_argument("--hs", type=_float_list, default=None)
    sp.add_argument("--max-iterations", type=int, default=LmOptions.max_iterations)
    sp.add_argument("--sse-rel-tol", type=float, default=LmOptions.sse_rel_tol)
    sp.add_argument("--grad-inf-tol", type=float, default=LmOptions.grad_inf_tol)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=_threads, default="auto",
                    help="worker threads (or 'auto'); ALPHAREG_THREADS overrides")
    sp.add_argument("--out", default=None, help="result path (default stdout)")
    sp.add_argument("--csv-dir", default=None,
                    help="additionally export tables as CSV files here")


def build_parser():
    parser = _Parser(prog="alphareg",
                     description="Compositional regression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="select, fit, and report")
    _add_dataset_args(fit)
    _add_model_args(fit)
    fit.add_argument("--with-se", action="store_true",
                     help="include sandwich standard errors")
    fit.add_argument("--bootstrap-replicates", type=int, default=0,
                     help="use a pairs bootstrap of this size for the SEs")

    cv = sub.add_parser("cv", help="cross-validation scores only")
    _add_dataset_args(cv)
    _add_model_args(cv)

    margins = sub.add_parser("margins", help="marginal-effect tables")
    _add_dataset_args(margins)
    _add_model_args(margins)
    margins.add_argument("--with-se", action="store_true")
    margins.add_argument("--bootstrap-replicates", type=int, default=0)

    predict = sub.add_parser("predict", help="predict compositions for new data")
    predict.add_argument("--model-doc", required=True,
                         help="result document produced by `fit`")
    predict.add_argument("--data", required=True, help="CSV of new observations")
    predict.add_argument("--out", default=None, help="output CSV (default stdout)")
    predict.add_argument("--threads", type=_threads, default="auto")

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
    grid_kwargs = {}
    if args.alphas is not None:
        grid_kwargs["alphas"] = args.alphas
    if args.ks is not None:
        grid_kwargs["ks"] = args.ks
    if args.hs is not None:
        grid_kwargs["hs"] = args.hs
    return RunConfig(
        model=args.model,
        alpha=args.alpha,
        k=args.k,
        h=args.h,
        grid=CvGrid(**grid_kwargs),
        solver=LmOptions(
            max_iterations=args.max_iterations,
            sse_rel_tol=args.sse_rel_tol,
            grad_inf_tol=args.grad_inf_tol,
        ),
        bootstrap_replicates=getattr(args, "bootstrap_replicates", 0),
        seed=args.seed,
        threads=args.threads,
        with_se=getattr(args, "with_se", False),
    )


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


def _cmd_fit(args, margins_only=False):
    spec = _dataset_spec(args)
    Y, X, coords = load_dataset(spec)
    config = _run_config(args)
    doc, fit = run_fit(config, Y, X, coords,
                       covariate_names=args.covariate_cols)
    doc["dataset"] = {
        "path": args.data,
        "resolved_path": str(Path(args.data).resolve()),
        "sha256": _sha256(args.data),
        "composition_columns": args.composition_cols,
        "covariate_columns": args.covariate_cols,
        "lat_column": args.lat_col,
        "lon_column": args.lon_col,
    }
    if margins_only:
        doc = {
            "hyperparameters": doc["hyperparameters"],
            "marginal_effects": doc["marginal_effects"],
            "standard_errors": doc["standard_errors"],
            "covariate_names": args.covariate_cols,
        }
    if getattr(args, "csv_dir", None) and not margins_only:
        _export_tables(doc, fit.fitted, args.csv_dir, Y.shape[1])
    _emit(doc, args.out)
    return 0


def _cmd_cv(args):
    spec = _dataset_spec(args)
    Y, X, coords = load_dataset(spec)
    config = _run_config(args)
    threads = resolve_threads(config.threads)
    cv = select(config.model, Y, X, coords, config.grid, config.solver, threads)
    _emit({"model": config.model, "selection": _selection_doc(cv)}, args.out)
    return 0


def _cmd_predict(args):
    try:
        doc = json.loads(Path(args.model_doc).read_text(encoding="utf-8"))
        dataset, model = doc["dataset"], doc["config"]["model"]
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise DataError(
            f"model document {args.model_doc} is not readable as a fit result: "
            f"{type(exc).__name__}: {exc}") from None
    new_spec = DatasetSpec(
        path=args.data,
        composition_columns=dataset["composition_columns"],
        covariate_columns=dataset["covariate_columns"],
        lat_column=dataset["lat_column"] if model != "alpha" else None,
        lon_column=dataset["lon_column"] if model != "alpha" else None,
    )
    _, X_new, coords_new = _load_for_predict(new_spec)
    threads = resolve_threads(args.threads)

    if model == "alpha":
        B = np.asarray(doc["fit"]["coefficients"])
        mu = fitted_mean(X_new, B)
    elif model == "slx":
        mu = _predict_slx(doc, dataset, X_new, coords_new)
    else:
        mu = _predict_gwar_from_doc(doc, dataset, X_new, coords_new, threads)

    comp = dataset["composition_columns"]
    rows = [[float(v) for v in row] for row in mu]
    if args.out:
        _write_csv(args.out, comp, rows)
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(comp)
        writer.writerows([f"{v:.17g}" for v in row] for row in rows)
    return 0


def _load_for_predict(spec):
    """Load new observations; composition columns may be absent for predict."""
    try:
        return load_dataset(spec)
    except MissingColumn:
        # fall back to covariates only (no response in the new file)
        from .datasets import _column, _read_table

        header, rows = _read_table(spec.path)
        covs = [_column(header, rows, c, spec.path) for c in spec.covariate_columns]
        X = np.column_stack([np.ones(len(rows))] + covs)
        coords = None
        if spec.lat_column is not None:
            coords = GeoCoordinates.from_degrees(
                _column(header, rows, spec.lat_column, spec.path),
                _column(header, rows, spec.lon_column, spec.path),
            )
        return None, X, coords


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


def _predict_slx(doc, dataset, X_new, coords_new):
    """Lag each new row by its k nearest training locations, as fit-time W does."""
    if coords_new is None:
        raise InvalidParameters("prediction for this model needs coordinates")
    _, X_train, coords_train = _train_data(dataset)
    k = int(doc["hyperparameters"]["k"])
    C = np.asarray(doc["fit"]["coefficients"])
    idx, d2 = neighbor_table(coords_train, k, query=coords_new)
    lags = neighbor_lag(idx, row_weights(d2), X_train)
    return fitted_mean(np.hstack([X_new, lags]), C)


def _predict_gwar_from_doc(doc, dataset, X_new, coords_new, threads):
    """Rebuild the locally weighted fit from its document (no refitting)."""
    if coords_new is None:
        raise InvalidParameters("prediction for this model needs coordinates")
    from .regression import kld
    from .spatial import GwarFit, local_fitted_mean

    Y_train, X_train, coords_train = _train_data(dataset)
    local = np.asarray(doc["fit"]["local_coefficients"])
    fitted = local_fitted_mean(X_train, local)
    fit = GwarFit(
        local_coefficients=local,
        alpha=doc["hyperparameters"]["alpha"],
        h=doc["hyperparameters"]["h"],
        fitted=fitted,
        kld=kld(Y_train, fitted),
        global_coefficients=np.asarray(doc["fit"]["global_coefficients"]),
        train_Y=Y_train,
        train_X=X_train,
        train_coords=coords_train,
        opts=LmOptions(**doc["config"]["solver"]),
    )
    return predict_gwar(fit, X_new, coords_new, threads=threads)


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
            return _cmd_fit(args, margins_only=True)
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

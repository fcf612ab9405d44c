"""Command-line interface.

Subcommands: ``fit`` (select hyper-parameters if unset, fit, emit a JSON
document), ``cv`` (selection scores only), ``predict`` (new-data means from
a saved document), ``margins`` (marginal-effect tables), and ``generate``
(synthetic datasets with a ground-truth sidecar).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

import argparse
import contextlib
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
    check_integer,
    check_real,
)
from .optim import LmOptions
from .regression import fitted_mean, kld
from .run import MODELS, RunConfig, run_cv, run_fit
from .selection import CvGrid
from .spatial import GwarFit, local_fitted_mean, neighbor_lag, neighbor_table, predict_gwar


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
    """A thread count, or ``auto`` (0), checked and then ignored: ``--threads``
    stays accepted so that command lines that give it still run."""
    if text == "auto":
        return 0
    try:
        count = int(text)
    except ValueError:
        count = None
    if count is None or count < 0:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer >= 0, got {text!r}")
    return count


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
    sp.add_argument("--threads", type=_threads,
                    help="accepted ('auto' or an integer >= 0) and ignored: the "
                         "bootstrap is one batched solve on one thread")


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
    fit.set_defaults(handler=_cmd_fit)

    cv = sub.add_parser("cv", help="cross-validation scores only",
                        argument_default=argparse.SUPPRESS)
    _add_dataset_args(cv)
    _add_model_args(cv)
    cv.set_defaults(handler=_cmd_cv)

    margins = sub.add_parser("margins", help="marginal-effect tables",
                             argument_default=argparse.SUPPRESS)
    _add_dataset_args(margins)
    _add_model_args(margins)
    _add_se_args(margins)
    margins.set_defaults(handler=_cmd_margins)

    predict = sub.add_parser("predict", help="predict compositions for new data")
    predict.add_argument("--model-doc", required=True,
                         help="result document produced by `fit`")
    predict.add_argument("--data", required=True, help="CSV of new observations")
    predict.add_argument("--out", default=None, help="output CSV (default stdout)")
    predict.set_defaults(handler=_cmd_predict)

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
    gen.set_defaults(handler=_cmd_generate)
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
    """Rows to the CSV file ``path``, or to stdout when it is None; a float
    is written with 17 significant digits."""
    with (open(path, "w", newline="", encoding="utf-8") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
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
    _write_csv(out / "fitted.csv", comp, fitted.tolist())


def _run(args):
    config = _run_config(args)  # settings are checked before the data are read
    Y, X, coords = load_dataset(_dataset_spec(args))
    return run_fit(config, Y, X, coords, covariate_names=args.covariate_cols)


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
    keys = ("hyperparameters", "marginal_effects", "standard_errors", "diagnostics")
    _emit({key: doc[key] for key in keys if key in doc}
          | {"covariate_names": args.covariate_cols}, args.out)
    return 0


def _cmd_cv(args):
    config = _run_config(args)
    selection, _ = run_cv(config, *load_dataset(_dataset_spec(args)))
    _emit({"model": config.model, "selection": selection}, args.out)
    return 0


def _cmd_predict(args):
    model, columns, dataset, params = _read_model_doc(args.model_doc)
    X_new, coords_new = load_covariates(DatasetSpec(path=args.data, **columns))
    if model == "slx":
        X_new = _slx_design(params["k"], dataset, X_new, coords_new)
    mu = (_predict_gwar_from_doc(params, dataset, X_new, coords_new) if model == "gwar"
          else fitted_mean(X_new, params["coefficients"]))
    _write_csv(args.out, columns["composition_columns"], mu.tolist())
    return 0


def _read_model_doc(path):
    """The model, dataset columns, dataset block and fitted parameters that
    ``predict`` reads from a fit document.

    A missing or non-JSON file, or any missing or malformed field, is a
    :class:`DataError` naming the file; so is a number that is not finite
    (``NaN``, ``Infinity``, or one too large for a double), a coefficient
    that is not a number, and a setting outside the range its
    :class:`RunConfig` field allows.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"),
                         parse_float=_finite_number, parse_constant=_finite_number)
        model, dataset, fit = doc["config"]["model"], doc["dataset"], doc["fit"]
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        keys = ["composition_columns", "covariate_columns"]
        if model != "alpha":
            keys += ["lat_column", "lon_column"]
        columns = {key: dataset[key] for key in keys}
        if model == "gwar":
            params = {
                "local": _real_array(fit["local_coefficients"]),
                "global": _real_array(fit["global_coefficients"]),
                "alpha": check_real("alpha", doc["hyperparameters"]["alpha"], "[-1, 1]"),
                "h": check_real("bandwidth h", doc["hyperparameters"]["h"], "(0, inf)"),
                "opts": LmOptions(**doc["config"]["solver"]),
            }
        else:
            params = {"coefficients": _real_array(fit["coefficients"])}
            if model == "slx":
                params["k"] = doc["hyperparameters"]["k"]
                check_integer("neighbor count k", params["k"], 1)
    except (OSError, ValueError, OverflowError, LookupError, TypeError,
            InvalidParameters) as exc:
        raise DataError(
            f"model document {path} is not readable as a fit result: "
            f"{type(exc).__name__}: {exc}") from None
    return model, columns, dataset, params


def _finite_number(text):
    """A JSON number as a float, refusing ``NaN`` and ``Infinity`` (which
    strict JSON forbids) and a literal that overflows to infinity."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _real_array(value):
    """Nested lists of JSON numbers as a float array; a bool or a string
    among them, or a ragged list, is a ValueError."""
    array = np.asarray(value, dtype=object)
    if not all(type(v) in (int, float) for v in array.flat):
        raise ValueError("coefficients must be nested lists of numbers")
    return array.astype(np.float64)


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


def _slx_design(k, dataset, X_new, coords_new):
    """``[X_new | lag]``, each new row lagged by its k nearest training locations."""
    if coords_new is None:
        raise InvalidParameters("prediction for this model needs coordinates")
    _, X_train, coords_train = _train_data(dataset)
    return np.hstack([X_new, neighbor_lag(*neighbor_table(coords_train, k, query=coords_new),
                                          X_train)])


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
        return args.handler(args)
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except AlphaRegError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

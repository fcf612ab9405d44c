"""Command-line interface.

Subcommands: ``fit`` (select hyper-parameters if unset, fit, emit a JSON
document), ``cv`` (selection scores only), ``predict`` (new-data means from
a saved document), ``margins`` (marginal-effect tables), and ``generate``
(synthetic datasets with a ground-truth sidecar).

Every subcommand passes on only the options given, so each default is
defined once: a model setting on :class:`RunConfig`, :class:`CvGrid` or
:class:`LmOptions`, a generator setting on :func:`synthesize`.  Nothing here
depends on the model: ``fit`` adds the document's dataset block by
:func:`datasets.dataset_record`, ``predict`` reads a document back by
:func:`run.read_model` and predicts by :func:`run.predict_model`, and every
CSV is written by :func:`datasets.write_csv` and every JSON document by
:func:`datasets.write_json`.

Exit codes: 0 success, 1 usage error, 2 data error (an unwritable output
path too, checked before any data are read), 3 numerical failure.
"""

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from ._parallel import resolve_threads
from .datasets import (SPATIAL_MODES, DatasetSpec, dataset_record, generate_synthetic,
                       load_covariates, load_dataset, path_errors, write_csv, write_json)
from .exceptions import AlphaRegError, DataError, InvalidParameters, NumericalError
from .optim import LmOptions
from .run import MODELS, RunConfig, predict_model, read_model, run_cv, run_fit
from .selection import CvGrid


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
    """A thread count checked by :func:`resolve_threads` and then ignored:
    ``--threads`` stays accepted so that command lines that give it still run."""
    try:
        return resolve_threads(text)
    except (ValueError, InvalidParameters):
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer >= 0, got {text!r}") from None


def _add_dataset_args(sp):
    """Data options, whose dest names are :class:`DatasetSpec`'s fields."""
    sp.add_argument("--data", dest="path", required=True, help="CSV file with a header row")
    sp.add_argument("--composition-cols", dest="composition_columns", required=True,
                    type=_csv_list, help="comma-separated response column names")
    sp.add_argument("--covariate-cols", dest="covariate_columns", required=True,
                    type=_csv_list, help="comma-separated covariate column names")
    sp.add_argument("--lat-col", dest="lat_column")
    sp.add_argument("--lon-col", dest="lon_column")


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

    # an option not given sets no attribute (SUPPRESS), see _given
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

    # dest names are synthesize's parameters; one not given keeps its default
    gen = sub.add_parser("generate", help="write a synthetic dataset",
                         argument_default=argparse.SUPPRESS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--components", dest="D", type=int, required=True)
    gen.add_argument("--covariates", dest="p", type=int, required=True)
    gen.add_argument("--alpha", type=float)
    gen.add_argument("--noise-scale", type=float)
    gen.add_argument("--spatial-mode", choices=SPATIAL_MODES)
    gen.add_argument("--slx-k", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out-dir")
    gen.set_defaults(handler=_cmd_generate)
    return parser


def _given(args, cls):
    """The fields of ``cls`` given on the command line; the rest keep their defaults."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _run_config(args):
    return RunConfig(**_given(args, RunConfig), grid=CvGrid(**_given(args, CvGrid)),
                     solver=LmOptions(**_given(args, LmOptions)))


def _check_outputs(args):
    """Fail before any work where an output cannot be written: an ``--out``
    that is a directory or lies in a missing one, or a ``--csv-dir`` that is
    a file or lies under one.  Creates nothing; the writes still map their
    own errors (:func:`path_errors`), a denied permission among them.
    ``generate`` checks its own outputs before it synthesizes anything
    (:func:`datasets.generate_synthetic`)."""
    out, csv_dir = getattr(args, "out", None), getattr(args, "csv_dir", None)
    if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        raise DataError(f"cannot write {out}: not a file in an existing directory")
    existing = csv_dir and next(p for p in (Path(csv_dir), *Path(csv_dir).parents) if p.exists())
    if existing and not existing.is_dir():
        raise DataError(f"cannot write {csv_dir}: {existing} is not a directory")


def _export_tables(doc, fitted, csv_dir):
    out = Path(csv_dir)
    with path_errors(out, "write"):
        out.mkdir(parents=True, exist_ok=True)
    comp = [f"component_{j + 1}" for j in range(fitted.shape[1])]
    corr = doc["fit"]["observed_fitted_correlation"]
    # a constant column has no correlation (None): its cell stays empty
    write_csv(out / "correlations.csv", comp,
              [[None if v is None else float(v) for v in corr]])
    for name, table in doc["marginal_effects"].items():
        rows = [[cov] + [float(v) for v in vals] for cov, vals in table.items()]
        write_csv(out / f"{name}.csv", ["covariate"] + comp, rows)
    write_csv(out / "fitted.csv", comp, fitted.tolist())


def _run(args):
    config = _run_config(args)  # settings are checked before the data are read
    Y, X, coords = load_dataset(DatasetSpec(**_given(args, DatasetSpec)))
    return run_fit(config, Y, X, coords, covariate_names=args.covariate_columns)


def _cmd_fit(args):
    doc, fit = _run(args)
    doc["dataset"] = dataset_record(DatasetSpec(**_given(args, DatasetSpec)))
    if args.csv_dir:
        _export_tables(doc, fit.fitted, args.csv_dir)
    write_json(args.out, doc)
    return 0


def _cmd_margins(args):
    doc, _ = _run(args)
    keys = ("hyperparameters", "marginal_effects", "standard_errors", "diagnostics")
    write_json(args.out, {key: doc[key] for key in keys if key in doc}
               | {"covariate_names": args.covariate_columns})
    return 0


def _cmd_cv(args):
    config = _run_config(args)
    selection, _ = run_cv(config, *load_dataset(DatasetSpec(**_given(args, DatasetSpec))))
    write_json(args.out, {"model": config.model, "selection": selection})
    return 0


def _cmd_predict(args):
    try:  # a fit document that read_model refuses is a data error naming the file
        model = read_model(json.loads(Path(args.model_doc).read_text(encoding="utf-8"),
                                      parse_float=_finite_number,
                                      parse_constant=_finite_number))
    except (OSError, ValueError, OverflowError, LookupError, TypeError,
            InvalidParameters) as exc:
        raise DataError(
            f"model document {args.model_doc} is not readable as a fit result: "
            f"{type(exc).__name__}: {exc}") from None
    X_new, coords_new = load_covariates(DatasetSpec(path=args.data, **model.columns))
    write_csv(args.out, model.columns["composition_columns"],
              predict_model(model, X_new, coords_new).tolist())
    return 0


def _finite_number(text):
    """A JSON number as a float, refusing ``NaN`` and ``Infinity`` (which
    strict JSON forbids) and a literal that overflows to infinity."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _cmd_generate(args):
    settings = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
    data_path, truth_path = generate_synthetic(**settings)
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
        _check_outputs(args)
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

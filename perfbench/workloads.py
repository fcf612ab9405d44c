"""The four benchmark workloads: seeded inputs and one timed call each.

A workload's inputs come only from ``synthesize`` and the seed.  ``call`` is
the timed region: one complete ``run_fit`` (or one in-process ``alphareg fit``
CLI call).  ``outcome`` runs after the timer and turns the call's result into
the document text and fitted compositions the output check reads.

Functions are looked up on their modules at call time (``ar_run.run_fit``,
``ar_cli.main``) so that a traced call goes through the installed wrappers.
"""

import csv
import dataclasses
import json
from typing import Callable

import numpy as np

import alphareg
from alphareg import cli as ar_cli
from alphareg import run as ar_run
from alphareg import selection as ar_selection
from alphareg.run import RunConfig
from alphareg.selection import CvGrid


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, workdir) -> inputs dict
    call: Callable  # (inputs, threads) -> raw result; threads=None keeps the default
    outcome: Callable  # (inputs, raw result) -> Outcome
    threaded: bool = False  # runs at the thread count `--threads auto` resolves to


@dataclasses.dataclass
class Outcome:
    text: str  # the result document as JSON text
    fitted: np.ndarray  # n x D fitted compositions
    doc_bytes: int  # bytes the CLI wrote; 0 for library calls


def _synth(n, D, p, mode):
    def build(seed, workdir):
        sim = alphareg.synthesize(n, D, p, alpha=0.5, noise_scale=0.05,
                                  spatial_mode=mode, seed=seed)
        return {"Y": sim["Y"], "X": sim["X"], "coords": sim["coords"]}
    return build


def _library_outcome(inputs, result):
    doc, fit = result
    return Outcome(json.dumps(doc, indent=2), fit.fitted, 0)


def _alpha_cv(inputs, threads):
    config = RunConfig(model="alpha", with_se=True)
    return ar_run.run_fit(config, inputs["Y"], inputs["X"])


def _slx_cv(inputs, threads):
    config = RunConfig(model="slx", grid=CvGrid(alphas=(0.5, 1.0), ks=(3, 5)),
                       with_se=True)
    return ar_run.run_fit(config, inputs["Y"], inputs["X"], inputs["coords"])


def _gwar_cv(inputs, threads):
    hs = ar_selection.default_h_grid(inputs["coords"])
    config = RunConfig(model="gwar", alpha=0.5, grid=CvGrid(hs=(hs[2], hs[4], hs[6])))
    return ar_run.run_fit(config, inputs["Y"], inputs["X"], inputs["coords"])


BOOT_D, BOOT_P = 5, 4
COMPOSITION_COLS = [f"y{j + 1}" for j in range(BOOT_D)]
COVARIATE_COLS = [f"x{j + 1}" for j in range(BOOT_P)]


def _build_boot_cli(seed, workdir):
    inputs = _synth(2000, BOOT_D, BOOT_P, "none")(seed, workdir)
    path = workdir / f"boot-cli-{seed}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPOSITION_COLS + COVARIATE_COLS)
        for y, x in zip(inputs["Y"], inputs["X"][:, 1:]):
            writer.writerow([f"{v:.17g}" for v in (*y, *x)])
    inputs["csv"] = str(path)
    inputs["out"] = str(workdir / f"boot-cli-{seed}.json")
    return inputs


def _boot_cli(inputs, threads):
    argv = ["fit", "--data", inputs["csv"],
            "--composition-cols", ",".join(COMPOSITION_COLS),
            "--covariate-cols", ",".join(COVARIATE_COLS),
            "--alpha", "0.5", "--bootstrap-replicates", "50",
            "--out", inputs["out"]]
    if threads is not None:
        argv += ["--threads", str(threads)]
    code = ar_cli.main(argv)
    if code != 0:
        raise RuntimeError(f"alphareg fit exited with code {code}")
    return inputs["out"]


def _boot_cli_outcome(inputs, out_path):
    with open(out_path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    return Outcome(text, _fitted_from_doc(text, inputs["X"]), len(raw))


def _fitted_from_doc(text, X):
    """Multinomial-logit means from the document's coefficients, computed here
    rather than by the library, so the check does not trust the program."""
    try:
        B = np.asarray(json.loads(text)["fit"]["coefficients"], dtype=np.float64)
        eta = np.hstack([np.zeros((X.shape[0], 1)), X @ B])
    except (ValueError, KeyError, TypeError):
        return None
    e = np.exp(eta - eta.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


WORKLOADS = {
    w.name: w for w in (
        Workload("alpha-cv", _synth(150, 4, 3, "none"), _alpha_cv, _library_outcome),
        Workload("slx-cv", _synth(120, 4, 3, "slx"), _slx_cv, _library_outcome),
        Workload("gwar-cv", _synth(200, 4, 3, "two_cluster"), _gwar_cv,
                 _library_outcome),
        Workload("boot-cli", _build_boot_cli, _boot_cli, _boot_cli_outcome,
                 threaded=True),
    )
}

"""Benchmark for alphareg: end-to-end time of one complete fit per model.

Usage, from the repository root:

    python3 perfbench/run.py --workload alpha-cv --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --runs 3

``--trace 0`` repeats the workload's call for ``--seconds`` seconds, on the
seed's inputs and on those of a seed with a stored reference document in
turn, and reports the end-to-end metrics (medians over the calls, in
normalised seconds, see ``calibrate.py``).  ``--trace 1`` alternates untraced
and traced calls and reports the per-layer metrics of the traced ones.
``--workload all`` runs every workload in its own process, ``--runs`` times
untraced plus once traced, and prints medians and quartiles.
The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("alpha-cv", "slx-cv", "gwar-cv", "boot-cli")
REFERENCE_SEEDS = (0, 5)
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 900

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "run.run_fit.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.doc_bytes": "bytes",
    "datasets.load_dataset.s": "s",
    "datasets.rows": "count",
    "selection.loocv.s": "s",
    "selection.self_s": "s",
    "selection.folds": "count",
    "selection.folds_failed": "count",
    "selection.warm_fits": "count",
    "regression.fit.calls": "count",
    "regression.fit.s": "s",
    "regression.fit.ms_p50": "ms",
    "regression.fit.ms_p95": "ms",
    "regression.residual.calls": "count",
    "regression.residual.s": "s",
    "regression.jacobian.calls": "count",
    "regression.jacobian.s": "s",
    "regression.self_s": "s",
    "regression.jacobian.bytes_computed": "bytes",
    "optim.lm.s": "s",
    "optim.self_s": "s",
    "optim.iterations": "count",
    "optim.rejections": "count",
    "optim.max_iter_hits": "count",
    "optim.iterations_per_solve": "ratio",
    "optim.jtj.flop_computed": "flop",
    "spatial.contiguity_matrix.calls": "count",
    "spatial.contiguity_matrix.s": "s",
    "spatial.pairwise_chordal_sq.calls": "count",
    "spatial.pairwise_chordal_sq.s": "s",
    "spatial.kernel_weights.calls": "count",
    "spatial.kernel_weights.s": "s",
    "spatial.fit_gwar.s": "s",
    "spatial.fit_alpha_slx.calls": "count",
    "inference.sandwich.s": "s",
    "inference.bootstrap.s": "s",
    "inference.bootstrap.solves": "count",
    "inference.bootstrap.failed": "count",
    "inference.margins.s": "s",
    "simplex.alpha_transform.calls": "count",
    "simplex.alpha_transform.s": "s",
    "parallel.parallel_map.items": "count",
    "parallel.busy_ratio": "ratio",
    "parallel.speedup": "ratio",
    "trace.overhead_ratio": "ratio",
}
# Counts that are structurally zero on the listed workloads at this design.
PREDICTED_ZEROS = {
    "spatial.contiguity_matrix.calls": ("alpha-cv", "gwar-cv", "boot-cli"),
    "inference.bootstrap.solves": ("alpha-cv", "slx-cv", "gwar-cv"),
    "selection.folds": ("boot-cli",),
}


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def _import_program():
    """Import alphareg from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "alphareg" / "__init__.py").is_file():
        raise BenchError(f"no alphareg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import alphareg

    if Path(alphareg.__file__).resolve().parent != (SRC / "alphareg").resolve():
        raise BenchError(f"imported alphareg from {alphareg.__file__}, not {SRC}")


def environment():
    import numpy
    from alphareg._parallel import resolve_threads

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "threads_auto": resolve_threads("auto"),
    }


def sessions_for(workload, seed, workdir):
    """The seed's session and a partner on a seed with a stored reference.

    Every run calls the partner at least once, so every run checks results
    against a stored document.
    """
    from session import Session

    partner = REFERENCE_SEEDS[0] if seed != REFERENCE_SEEDS[0] else REFERENCE_SEEDS[1]
    return Session(workload, seed, workdir), Session(workload, partner, workdir)


def _keep_going(start, seconds, durations):
    return time.perf_counter() - start + statistics.median(durations) <= seconds


# -- modes ----------------------------------------------------------------------

def setup_seconds(name, seed, workdir):
    """Median over fresh interpreters of import plus input building, normalised."""
    from calibrate import NOMINAL_S

    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        wall, speed = map(float, proc.stdout.split())
        raw.append(wall)
        scaled.append(wall * NOMINAL_S / speed)
    print(f"setup: measured {', '.join(f'{w:.4f}' for w in raw)} s")
    return statistics.median(scaled)


def setup_probe(name, seed, workdir):
    """Print the set-up wall time, then the yardstick measured right after it."""
    t0 = time.perf_counter()
    _import_program()
    from workloads import WORKLOADS

    WORKLOADS[name].build(seed, Path(workdir))
    wall = time.perf_counter() - t0
    from calibrate import yardstick

    yardstick()  # warm-up
    print(repr(wall), repr(yardstick()))


def run_untraced(workload, seed, seconds, workdir):
    """Timed calls alternate between the seed's inputs and the partner's."""
    setup_s = setup_seconds(workload.name, seed, workdir)
    sessions = sessions_for(workload, seed, workdir)
    timings = []
    start = time.perf_counter()
    while True:
        timings.append(sessions[len(timings) % 2].call()[0])
        if not _keep_going(start, seconds, [t.wall for t in timings]):
            break
    if len(timings) == 1:
        sessions[1].call()
    print(f"calls: {len(timings)}; measured run_s "
          f"{', '.join(f'{t.wall:.3f}' for t in timings)}; cpu_s "
          f"{', '.join(f'{t.cpu:.3f}' for t in timings)}; scale "
          f"{', '.join(f'{t.scale:.3f}' for t in timings)}")
    metrics = {
        "run_s": statistics.median(t.wall * t.scale for t in timings),
        "cpu_s": statistics.median(t.cpu * t.scale for t in timings),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return sessions, metrics, END_TO_END_UNITS


def _traced_call(session, threads=None):
    """One traced call; its layer metrics with times normalised like run_s."""
    from spans import Recorder, Tracer, layer_metrics

    recorder = Recorder()
    timing, outcome = session.call(threads=threads, tracer=Tracer(recorder))
    metrics = layer_metrics(recorder.spans, timing.wall)
    for key, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "ms") and key in metrics:
            metrics[key] *= timing.scale
    metrics["cli.doc_bytes"] = outcome.doc_bytes if outcome else 0
    return timing, recorder.spans, metrics


def run_traced(workload, seed, seconds, workdir):
    """Rounds of an untraced and a traced call on the seed's inputs.

    Only the seed's inputs are traced, so the counts repeat exactly; the
    partner is called once, untimed, for the reference check.
    """
    from spans import layer_breakdown

    session, partner = sessions_for(workload, seed, workdir)
    untraced, traced, per_call, one_thread_boot = [], [], [], []
    first = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        timing, _ = session.call()
        untraced.append(timing.wall * timing.scale)
        timing, spans, metrics = _traced_call(session)
        traced.append(timing.wall * timing.scale)
        per_call.append(metrics)
        if first is None:
            first = (spans, timing.wall)
        if workload.threaded:
            _, _, one_thread = _traced_call(session, threads=1)
            one_thread_boot.append(one_thread["inference.bootstrap.s"])
        if not _keep_going(start, seconds, [time.perf_counter() - round_start]):
            break
    partner.call()

    spans, wall = first
    layers, overlap, unaccounted = layer_breakdown(spans, wall)
    print(f"traced call of {workload.name}: wall {wall:.4f} s (measured), "
          f"{len(spans)} spans")
    for layer, own in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  self  {layer:<12} {own:10.4f} s")
    print(f"  minus overlap of concurrent spans {overlap:10.4f} s")
    print(f"  plus unaccounted remainder        {unaccounted:10.4f} s")
    print(f"  = wall                            "
          f"{sum(layers.values()) - overlap + unaccounted:10.4f} s")
    _dump_spans(workload.name, seed, spans)

    # median_low keeps counts whole when the number of traced calls is even
    out = {key: statistics.median_low(m[key] for m in per_call) for key in per_call[0]}
    if workload.threaded:
        boot = out["inference.bootstrap.s"]
        one = statistics.median(one_thread_boot)
        out["parallel.speedup"] = one / boot if boot else 0.0
    else:  # the workload runs one thread, so both sides are the same run
        out["parallel.speedup"] = 1.0
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return [session, partner], out, PER_LAYER_UNITS


def _dump_spans(name, seed, spans):
    path = WORK_ROOT / f"spans-{name}-seed{seed}.json"
    rows = [[s.id, s.parent, s.name, s.layer, s.t0, s.t1, s.info] for s in spans]
    path.write_text(json.dumps({"columns": ["id", "parent", "name", "layer", "t0",
                                            "t1", "info"], "spans": rows}))
    print(f"  spans written to {path.relative_to(ROOT)}")


def run_one(name, seed, seconds, trace):
    from workloads import WORKLOADS

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workdir = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_traced if trace else run_untraced
        sessions, metrics, units = runner(WORKLOADS[name], seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    for key in units:
        print(f"{name}  {key:<36} {metrics[key]:>16.6g} {units[key]}")
    print(f"{name}  {'fail_ratio':<36} {failed / attempted:>16.6g} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def _child(name, seed, seconds, trace):
    """Run one workload in its own process; a crash counts as one failed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()
        return None, tail[-1] if tail else f"exit code {proc.returncode}, no output"
    return json.loads(lines[-1]), None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(seed, seconds, runs):
    print("env " + json.dumps(environment(), sort_keys=True))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        results = []
        for r in range(runs):
            result, error = _child(name, seed + r, seconds, 0)
            results.append(result)
            if error:
                print(f"{name} seed {seed + r}: run failed: {error}", file=sys.stderr)
        traced, error = _child(name, seed, seconds, 1)
        if error:
            print(f"{name} seed {seed}: traced run failed: {error}", file=sys.stderr)
        done = [r for r in results + [traced] if r is not None]
        attempted = sum(r["attempted"] for r in done) + (len(results) + 1 - len(done))
        failed = sum(r["failed"] for r in done) + (len(results) + 1 - len(done))
        summary["attempted"] += attempted
        summary["failed"] += failed
        print(f"\n== {name}: {len(results)} untraced runs, seeds {seed}..{seed + runs - 1}"
              f" (median [q1, q3]), then one traced run")
        ok = [r for r in results if r is not None]
        for key, unit in END_TO_END_UNITS.items():
            values = [r["metrics"][key]["value"] for r in ok]
            if values:
                q1, med, q3 = _quartiles(values)
                print(f"  {key:<36} {med:12.6g} [{q1:.6g}, {q3:.6g}] {unit}")
                summary["metrics"][f"{name}/{key}"] = {"value": med, "unit": unit}
        print(f"  {'fail_ratio':<36} {failed / attempted:12.6g} ratio "
              f"({failed} of {attempted} calls)")
        summary["metrics"][f"{name}/fail_ratio"] = {"value": failed / attempted,
                                                    "unit": "ratio"}
        if traced is not None:
            for key, unit in PER_LAYER_UNITS.items():
                value = traced["metrics"][key]["value"]
                note = ""
                if name in PREDICTED_ZEROS.get(key, ()):
                    note = "  (predicted 0: " + ("holds)" if value == 0 else "VIOLATED)")
                print(f"  {key:<36} {value:12.6g} {unit}{note}")
    summary["correct"] = summary["failed"] == 0
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload with --workload all")
    parser.add_argument("--write-reference", action="store_true",
                        help="store one call's document as the seed's reference")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if os.environ.get("ALPHAREG_THREADS") is not None:
            raise BenchError("ALPHAREG_THREADS is set; it would override the thread "
                             "count of every workload. Unset it to benchmark.")
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.workdir)
            return 0
        _import_program()
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        if args.write_reference:
            return write_reference(args.workload, args.seed)
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.runs)
        else:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def write_reference(name, seed):
    from check import check_document
    from session import REFERENCE_DIR
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = WORK_ROOT / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.build(seed, workdir)
        outcome = workload.outcome(inputs, workload.call(inputs, None))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = check_document(outcome.text, outcome.fitted)
    if problems:
        raise BenchError("; ".join(problems))
    doc = json.loads(outcome.text)
    doc.pop("dataset", None)  # holds this run's input path, which is not compared
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{name}-seed{seed}.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

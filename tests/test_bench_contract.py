"""The benchmark's tracing contract: every function ``perfbench/spans.py``
wraps by name exists, a traced bootstrap run reports its replicates as one
batched solve, and a traced leave-one-out search hands no work to the
thread pool.

``spans.py`` is loaded by file path (it imports only the standard library and
numpy); a renamed or removed target then fails here rather than partway
through a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from alphareg import CvGrid, RunConfig, run_fit, select
from alphareg.datasets import synthesize

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Tracer finds its targets in sys.modules, and `import alphareg` loads
    # neither cli nor _parallel (perfbench/run.py loads both before tracing)
    for name in {target[1] for target in module.TARGETS} | {"_parallel"}:
        importlib.import_module(f"alphareg.{name}")
    return module


def test_every_target_resolves_to_a_callable(spans):
    # the tracer also wraps _parallel.parallel_map, outside TARGETS
    names = [(module, function) for _, module, function, _ in spans.TARGETS]
    missing = [
        f"alphareg.{module}.{function}"
        for module, function in names + [("_parallel", "parallel_map")]
        if not callable(getattr(importlib.import_module(f"alphareg.{module}"),
                                function, None))
    ]
    assert not missing, f"traced functions not found: {missing}"


def test_traced_bootstrap_counts_one_solve_per_replicate(spans):
    sim = synthesize(n=40, D=3, p=1, alpha=0.5, noise_scale=0.1, seed=14)
    config = RunConfig(model="alpha", alpha=0.5, bootstrap_replicates=5)
    with spans.Tracer(spans.Recorder()) as recorder:
        run_fit(config, sim["Y"], sim["X"])
    metrics = spans.layer_metrics(recorder.spans, wall=0.0)
    # the replicates are one fit_alpha_batch stack, which the tracer does not
    # wrap: the one fit counted is the final fit
    assert metrics["regression.fit.calls"] == 1
    assert metrics["parallel.parallel_map.items"] == 0
    assert metrics["inference.bootstrap.failed"] == 0
    assert metrics["inference.bootstrap.s"] > 0


@pytest.mark.parametrize("model", ["alpha", "gwar"])
def test_traced_selection_uses_no_thread_pool(spans, model):
    sim = synthesize(n=20, D=3, p=1, alpha=0.5, noise_scale=0.1,
                     spatial_mode="two_cluster", seed=14)
    grid = CvGrid(alphas=(0.5, 1.0), hs=(0.05, 1e6))
    with spans.Tracer(spans.Recorder()) as recorder:
        select(model, sim["Y"], sim["X"], sim["coords"], grid)
    metrics = spans.layer_metrics(recorder.spans, wall=0.0)
    assert metrics["selection.loocv.s"] > 0
    assert metrics["parallel.parallel_map.items"] == 0

"""Timed and checked calls of one workload on one seed's inputs."""

import dataclasses
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import NOMINAL_S, yardstick
from check import check_document

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(name, seed):
    path = REFERENCE_DIR / f"{name}-seed{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


@dataclasses.dataclass
class Timing:
    wall: float  # measured seconds
    cpu: float  # measured process CPU seconds, all threads
    scale: float  # NOMINAL_S / yardstick around the call: seconds -> nominal seconds


class Session:
    """Inputs, reference and the running tallies for one workload and seed."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.inputs = workload.build(seed, workdir)
        self.reference = load_reference(workload.name, seed)
        self.first_text = {}  # per thread setting, which the document echoes
        self.attempted = 0
        self.failed = 0
        # a threaded workload runs on every CPU, so its yardstick covers them all
        self._cpus = sorted(os.sched_getaffinity(0)) if workload.threaded else ()
        yardstick()  # warm-up
        self._speed = yardstick(self._cpus)

    def call(self, threads=None, tracer=None):
        """One timed call, checked afterwards; returns (Timing, Outcome or None).

        ``tracer`` is a context manager entered around the call only.
        """
        self.attempted += 1
        before = self._speed
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                raw = self.workload.call(self.inputs, threads)
            else:
                with tracer:
                    raw = self.workload.call(self.inputs, threads)
            error = None
        except Exception as exc:  # a failing call is counted, not fatal
            error = exc
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self._speed = yardstick(self._cpus)
        timing = Timing(wall, cpu, NOMINAL_S / statistics.mean((before, self._speed)))
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            self._fail([f"call raised {type(error).__name__}: {error}"])
            return timing, None
        try:
            outcome = self.workload.outcome(self.inputs, raw)
        except (OSError, ValueError) as exc:
            self._fail([f"cannot read the result: {exc}"])
            return timing, None
        problems = check_document(outcome.text, outcome.fitted, self.reference)
        first = self.first_text.setdefault(threads, outcome.text)
        if outcome.text != first:
            problems.append("document differs from the first call on the same inputs")
        if problems:
            self._fail(problems)
        return timing, outcome

    def _fail(self, problems):
        self.failed += 1
        for p in problems:
            print(f"check failed [{self.workload.name} seed {self.seed}]: {p}",
                  file=sys.stderr)

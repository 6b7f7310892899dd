"""Cold-fit floor: the first model fit of a process costs about what a warm one does.

Two same-run ratios, each the median of three:

* **First fit over a warm fit.** A fresh interpreter builds the
  ``serve_mixed`` workload's set-up corpus (153 synthesized specs,
  ``benchmarks/e2e/serve.py``) and times :meth:`ModelSuite.fit_corpus` on it
  four times.  The non-negative fits run on the in-tree Lawson-Hanson
  solver, so the first call pays no import: 0.75-1.38x over thirteen runs.
  When the solver was ``scipy.optimize.nnls`` the first call imported
  scipy.optimize (~0.5 s, ~43 MB): 80-90x over five.
* **In-tree NNLS over one lstsq.** A p = 3, n = 40 design whose unconstrained
  intercept is negative, so the active set is exercised: 5.3-6.6x over
  thirteen runs.

Ratios of timings taken in one run need no recorded baseline and no machine
constant (2-vCPU x86-64 VM, numpy 2.4).

    PYTHONPATH=src python -m pytest benchmarks/bench_cold_fit.py -m perf -s
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.modeling.regression import _nnls

#: Most the first ``fit_corpus`` of a fresh process may cost over a warm one.
COLD_OVER_WARM_CEILING = 3.0
#: Most one active-set NNLS solve may cost over one ``np.linalg.lstsq``.
NNLS_OVER_LSTSQ_CEILING = 8.0

REPEATS = 3
ROUNDS = 5
CALLS = 1_000

#: The corpus ``serve_mixed`` builds and fits in its set-up
#: (``benchmarks/e2e/serve.py``, full scale, seed 2016: 153 specs), then four fits.
_CHILD = """
import json, sys, time
sys.path[:] = json.loads(sys.argv[1])
from repro.modeling.study import StudyConfiguration
from repro.reporting.suite import ModelSuite
from repro.study import build_plan, run_plan
config = StudyConfiguration(
    architectures=("gpu1-k40m", "gpu-p100"),
    samples_per_technique=24,
    compositing_task_counts=(2, 4, 8),
    compositing_pixel_sizes=(32, 48, 64),
    seed=2016,
)
corpus, _ = run_plan(build_plan(config))
seconds = []
for _ in range(4):
    start = time.perf_counter()
    ModelSuite.fit_corpus(corpus, seed=2016)
    seconds.append(time.perf_counter() - start)
print(json.dumps(seconds))
"""


def measure_cold_over_warm() -> float:
    """First ``fit_corpus`` of a fresh interpreter that has just built the corpus, as
    ``serve_mixed``'s set-up does, over its median warm one: median of ``REPEATS``."""
    ratios = []
    for _repeat in range(REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, json.dumps(sys.path)],
            capture_output=True, text=True, timeout=300, check=True,
        )
        first, *warm = json.loads(child.stdout)
        ratios.append(first / statistics.median(warm))
    return statistics.median(ratios)


def active_set_problem(n: int = 40):
    """Column-scaled ``(design, response)`` of two work columns and an intercept whose
    unconstrained fit has a negative intercept."""
    rng = np.random.default_rng(2016)
    work = rng.uniform(1e3, 1e6, (n, 2))
    design = np.column_stack([work, np.ones(n)])
    response = work @ np.array([2e-6, 5e-7]) - 0.05 + rng.normal(0.0, 1e-3, n)
    return design / np.linalg.norm(design, axis=0), response


def measure_nnls_over_lstsq() -> float:
    """``_nnls`` time over one ``lstsq`` time on :func:`active_set_problem`: median of
    ``REPEATS`` ratios, each of the fastest of ``ROUNDS`` alternating batches per side
    (the fastest batch is the one other processes disturbed least)."""
    design, response = active_set_problem()
    assert np.linalg.lstsq(design, response, rcond=None)[0][-1] < 0.0
    passes = {
        "nnls": lambda: _nnls(design, response),
        "lstsq": lambda: np.linalg.lstsq(design, response, rcond=None),
    }
    ratios = []
    for _repeat in range(REPEATS):
        fastest = dict.fromkeys(passes, float("inf"))
        for _round in range(ROUNDS):
            for name, call in passes.items():
                start = time.perf_counter()
                for _ in range(CALLS):
                    call()
                fastest[name] = min(fastest[name], time.perf_counter() - start)
        ratios.append(fastest["nnls"] / fastest["lstsq"])
    return statistics.median(ratios)


@pytest.mark.perf
def test_first_fit_of_a_process_imports_no_solver():
    ratio = measure_cold_over_warm()
    print(f"\nfirst/warm fit_corpus {ratio:.2f}x (ceiling {COLD_OVER_WARM_CEILING})")
    assert ratio <= COLD_OVER_WARM_CEILING, (
        f"first/warm fit_corpus {ratio:.2f}x exceeds {COLD_OVER_WARM_CEILING}x"
    )


@pytest.mark.perf
def test_active_set_nnls_costs_a_few_lstsq():
    ratio = measure_nnls_over_lstsq()
    print(f"\n_nnls/lstsq (p = 3, n = 40, active set) {ratio:.2f}x (ceiling {NNLS_OVER_LSTSQ_CEILING})")
    assert ratio <= NNLS_OVER_LSTSQ_CEILING, f"_nnls/lstsq {ratio:.2f}x exceeds {NNLS_OVER_LSTSQ_CEILING}x"

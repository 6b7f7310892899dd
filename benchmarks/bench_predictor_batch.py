"""Predictor-batch floor: the mapping's cube roots take linear passes, not a sort.

One same-run ratio: ``task_shrink`` on 10,000 rows holding ten distinct whole
task counts (the sweeps' ``predict_configurations`` batch) over one float64
multiply of the same rows.  Counting the task counts in a table indexed by the
count takes a few linear passes: 12.9-17.5x over twelve runs of this test
(each the median of five repeats).  Sorting them with ``np.unique`` measured
36.5-45.2x over ten runs, and taking every row's root, the route of a batch
the table does not take, 235-287x over five (2-vCPU x86-64 VM, numpy 2.4).
A ratio of two timings of one run needs no recorded baseline and no machine
constant.

    PYTHONPATH=src python -m pytest benchmarks/bench_predictor_batch.py -m perf -s
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.modeling.features import task_shrink

#: Most the cube roots of a batch may cost, as a multiple of one multiply.
SHRINK_OVER_MULTIPLY_CEILING = 25.0

ROWS = 10_000
TASK_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
CALLS = 200


def measure_shrink_over_multiply(repeats: int = 5) -> float:
    """``task_shrink`` time over ``tasks * 2.0`` time: median of ``repeats`` same-run ratios."""
    rng = np.random.default_rng(2016)
    tasks = np.array(TASK_COUNTS, dtype=np.float64)[rng.integers(0, len(TASK_COUNTS), ROWS)]
    passes = {"shrink": lambda: task_shrink(tasks), "multiply": lambda: tasks * 2.0}
    ratios = []
    for _repeat in range(repeats):
        seconds = {}
        for name, call in passes.items():
            call()  # first-touch allocations outside the timing
            start = time.perf_counter()
            for _ in range(CALLS):
                call()
            seconds[name] = time.perf_counter() - start
        ratios.append(seconds["shrink"] / seconds["multiply"])
    return statistics.median(ratios)


@pytest.mark.perf
def test_cube_roots_of_a_batch_take_no_sort():
    ratio = measure_shrink_over_multiply()
    print(f"\ntask_shrink/multiply at {ROWS} rows {ratio:.2f}x (ceiling {SHRINK_OVER_MULTIPLY_CEILING})")
    assert ratio <= SHRINK_OVER_MULTIPLY_CEILING, (
        f"task_shrink/multiply {ratio:.2f}x exceeds {SHRINK_OVER_MULTIPLY_CEILING}x"
    )

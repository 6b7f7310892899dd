"""Serving-rows floor: a batch of configurations is canonicalized by column, not row by row.

One same-run ratio: ``canonical_configs`` on 1,250 render configuration dicts
shaped like one ``sweep_control`` prediction call (Python-int task counts,
cells per task and image sizes, one architecture and technique, defaults
left implicit) over ``canonical_config`` called once per dict on the same
batch.  Reading each key's column once -- types as a set, range by
``min``/``max``, absent keys filled once -- measured 0.49-0.64x over eleven runs
of this test (each the median of five repeats); a batch function that loops
``canonical_config`` over the rows measured 0.90-1.01x over three (2-vCPU
x86-64 VM, Python 3.11, numpy 2.4).  A ratio of two timings of one run needs
no recorded baseline and no machine constant.

    PYTHONPATH=src python -m pytest benchmarks/bench_serving_rows.py -m perf -s
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.serving import canonical_config, canonical_configs

#: Most the batch canonicalizer may cost, as a multiple of the per-row loop.
BATCH_OVER_ROWS_CEILING = 0.8

ROWS = 1_250
CALLS = 40
TASK_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
IMAGE_SIZES = ((256, 256), (512, 512), (1024, 768), (1024, 1024), (1920, 1080), (2048, 2048))


def sweep_rows(seed: int = 2016) -> list[dict]:
    """``ROWS`` configuration dicts with ``sweep_control``'s keys and value ranges."""
    rng = np.random.default_rng(seed)
    tasks = np.array(TASK_COUNTS)[rng.integers(0, len(TASK_COUNTS), ROWS)].tolist()
    cells = rng.integers(40, 2000, ROWS).tolist()
    sizes = rng.integers(0, len(IMAGE_SIZES), ROWS).tolist()
    return [
        {
            "num_tasks": tasks[index],
            "cells_per_task": cells[index],
            "image_width": IMAGE_SIZES[sizes[index]][0],
            "image_height": IMAGE_SIZES[sizes[index]][1],
            "architecture": "gpu1-k40m",
            "technique": "raytrace",
        }
        for index in range(ROWS)
    ]


def measure_batch_over_rows(repeats: int = 5) -> float:
    """``canonical_configs`` time over per-row ``canonical_config`` time: median of ``repeats``."""
    configs = sweep_rows()
    if canonical_configs(configs) != [canonical_config(config) for config in configs]:
        raise RuntimeError("the batch canonicalizer disagrees with canonical_config")
    passes = {
        "batch": lambda: canonical_configs(configs),
        "rows": lambda: [canonical_config(config) for config in configs],
    }
    ratios = []
    for repeat in range(repeats):
        seconds = {}
        for name in ("batch", "rows") if repeat % 2 else ("rows", "batch"):
            start = time.perf_counter()
            for _ in range(CALLS):
                passes[name]()
            seconds[name] = time.perf_counter() - start
        ratios.append(seconds["batch"] / seconds["rows"])
    return statistics.median(ratios)


@pytest.mark.perf
def test_a_batch_is_canonicalized_by_column():
    ratio = measure_batch_over_rows()
    print(f"\nbatch/per-row canonicalization at {ROWS} rows {ratio:.2f}x (ceiling {BATCH_OVER_ROWS_CEILING})")
    assert ratio <= BATCH_OVER_ROWS_CEILING, (
        f"canonical_configs/canonical_config rows {ratio:.2f}x exceeds {BATCH_OVER_ROWS_CEILING}x"
    )

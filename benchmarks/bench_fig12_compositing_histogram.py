"""Figure 12: histogram of image compositing time versus MPI tasks and pixels.

Reproduces the two trends of Figure 12: more pixels cost more time, and (over
the studied task range) more tasks make compositing *faster* because each
task's active-pixel share shrinks.
"""

from __future__ import annotations

import numpy as np

from common import print_table
from repro.modeling.study import StudyConfiguration
from repro.study import run_study


def _compositing_rows(task_counts, pixel_sizes):
    """The radix-k compositing matrix alone (no rendering techniques)."""
    config = StudyConfiguration(
        seed=7,
        techniques=(),
        compositing_task_counts=task_counts,
        compositing_pixel_sizes=pixel_sizes,
    )
    return run_study(config).compositing_records


def test_fig12_compositing_histogram(benchmark):
    records = _compositing_rows((2, 4, 8, 16, 32), (64, 96, 128, 192))

    rows = []
    by_tasks: dict[int, list[float]] = {}
    by_pixels: dict[int, list[float]] = {}
    for record in records:
        rows.append([record.num_tasks, record.pixels, int(record.average_active_pixels), f"{record.seconds:.5f}s"])
        by_tasks.setdefault(record.num_tasks, []).append(record.seconds)
        by_pixels.setdefault(record.pixels, []).append(record.seconds)
    print_table("Figure 12: compositing time by tasks and pixels", ["tasks", "pixels", "avg active px", "time"], rows)

    benchmark(lambda: _compositing_rows((4,), (96,)))

    # Dominant trend: more pixels -> slower.
    pixel_keys = sorted(by_pixels)
    assert np.mean(by_pixels[pixel_keys[-1]]) > np.mean(by_pixels[pixel_keys[0]])

"""Render-harness floor: a block's pixel bound pays only for its screen footprint.

One same-run ratio: the full-screen slab count (every pixel ray generated once
and slab-tested against each grown box, kept here as the oracle) over
:func:`repro.rendering.rays.pixels_reaching`, which generates and tests only
the rays of each box's :func:`~repro.rendering.rays.screen_footprint`.  The
boxes are the two corner blocks (ranks 0 and 7) of an 8-rank decomposition
under the camera that frames all eight at 150^2 pixels, the sampled ranks of
a full-scale 8-task ``sweep_render`` spec.  Both sides give the same counts.
When ``pixels_reaching`` emitted every pixel's ray, this read 0.96-1.02x
over five runs of the test, each the median of five repeats; over the
footprints it read 3.9-4.3x over five (2-vCPU x86-64 VM, numpy 2.4).  A
ratio of two timings of one run needs no recorded baseline and no machine
constant.

    PYTHONPATH=src python -m pytest benchmarks/bench_render_harness.py -m perf -s
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.geometry.aabb import ray_box_intervals
from repro.geometry.transforms import Camera
from repro.rendering.rays import REACH_MARGIN, pixels_reaching
from repro.runtime.decomposition import BlockDecomposition

#: Least the footprint must save, as a multiple of the full-screen count's time.
FULL_SCREEN_OVER_FOOTPRINT_FLOOR = 2.0

SIZE = 150
CALLS = 20


def full_screen_slab_counts(camera: Camera, boxes) -> list[int]:
    """Per box, the pixel-center rays that reach it, tested over the whole screen."""
    origins, directions = camera.generate_rays()
    counts = []
    for box in boxes:
        grown = box.expanded(REACH_MARGIN * box.diagonal)
        t_near, t_far = ray_box_intervals(origins, directions, grown.low, grown.high)
        counts.append(int(np.count_nonzero(t_far > np.maximum(t_near, 0.0))))
    return counts


def measure_full_screen_over_footprint(repeats: int = 5) -> float:
    """Full-screen count time over ``pixels_reaching`` time: median of ``repeats`` same-run ratios."""
    decomposition = BlockDecomposition(8, 6)
    camera = Camera.framing_bounds(decomposition.global_bounds, SIZE, SIZE)
    boxes = [decomposition.block_bounds(rank) for rank in (0, 7)]
    passes = {
        "full_screen": lambda: full_screen_slab_counts(camera, boxes),
        "footprint": lambda: pixels_reaching(camera, boxes),
    }
    assert passes["footprint"]() == passes["full_screen"]()
    ratios = []
    for _repeat in range(repeats):
        seconds = {}
        for name, call in passes.items():
            call()  # first-touch allocations outside the timing
            start = time.perf_counter()
            for _ in range(CALLS):
                call()
            seconds[name] = time.perf_counter() - start
        ratios.append(seconds["full_screen"] / seconds["footprint"])
    return statistics.median(ratios)


@pytest.mark.perf
def test_the_pixel_bound_pays_only_for_the_footprint():
    ratio = measure_full_screen_over_footprint()
    floor = FULL_SCREEN_OVER_FOOTPRINT_FLOOR
    print(f"\nfull-screen/footprint pixel bound at {SIZE}^2 {ratio:.2f}x (floor {floor})")
    assert ratio >= floor, f"full-screen/footprint {ratio:.2f}x is below {floor}x"

"""Traversal floor: the float32 ray-state mode against float64, in the same run.

Both modes trace the same primary rays through the same BVH of the first
surface-pool scene at 192^2 (WORKLOAD1, one warm render each, then one timed
render each); the floor is a ratio of those two timings, so it needs no
recorded baseline and no other machine's numbers.  Correctness of the traversal
engine is tier-1's job (``tests/test_traversal_frontier.py`` and
``tests/test_raytracer.py`` check it against ``brute_force_closest_hit``).

    PYTHONPATH=src python -m pytest benchmarks/bench_traversal_throughput.py -m perf -s
"""

from __future__ import annotations

import time

import pytest

from common import BENCH_IMAGE_SIZE_LARGE, surface_scene_pool
from repro.geometry import Camera
from repro.rendering import RayTracer, RayTracerConfig, Workload

#: Most float32 may cost, as a multiple of float64's time on the same render.
FLOAT32_OVER_FLOAT64_CEILING = 1.25


@pytest.mark.perf
def test_float32_mode_throughput():
    """The optional float32 ray-state mode must not be slower than float64."""
    entry = surface_scene_pool()[0]
    camera = Camera.framing_bounds(entry.scene.mesh.bounds, BENCH_IMAGE_SIZE_LARGE, BENCH_IMAGE_SIZE_LARGE)
    timings = {}
    for ray_dtype in ("float64", "float32"):
        config = RayTracerConfig(workload=Workload.INTERSECTION_ONLY, ray_dtype=ray_dtype)
        tracer = RayTracer(entry.scene, config)
        tracer.build_acceleration_structure()
        tracer.render(camera)  # warm caches
        start = time.perf_counter()
        tracer.render(camera)
        timings[ray_dtype] = time.perf_counter() - start
    print(f"\nfloat64 {timings['float64']:.3f}s vs float32 {timings['float32']:.3f}s")
    assert timings["float32"] <= timings["float64"] * FLOAT32_OVER_FLOAT64_CEILING

"""Distributed in situ rendering with sort-last compositing plus an image-database sweep.

Run with ``python examples/distributed_image_database.py``.  The script
reproduces the workflow that motivates the paper's feasibility question:

1. a domain decomposed over simulated MPI ranks is rendered locally per rank,
2. the per-rank images are composited sort-last (Radix-k) into final images,
3. many camera angles are rendered to build a small Cinema-style image
   database, and
4. the measured per-frame cost is extrapolated with the fitted models to
   answer "how many images fit in a 60-second budget?" -- Figure 14, printed
   by the report's emitter (:func:`repro.reporting.figures.fig14_images_per_budget`).
"""

from __future__ import annotations

import numpy as np

from repro.compositing import Compositor
from repro.geometry import Camera
from repro.geometry.triangles import external_faces
from repro.insitu.imageio import write_ppm
from repro.modeling.study import StudyConfiguration
from repro.rendering import RayTracer, RayTracerConfig, Scene, Workload
from repro.reporting import ModelSuite
from repro.reporting.figures import fig14_images_per_budget
from repro.runtime import BlockDecomposition
from repro.study import run_study

NUM_TASKS = 8
CELLS_PER_TASK = 12
IMAGE_SIZE = 128
NUM_CAMERA_ANGLES = 6


def shell_field(points: np.ndarray) -> np.ndarray:
    """A blast-shell field continuous across the decomposed domain."""
    radius = np.linalg.norm(points - 0.2, axis=1)
    return np.exp(-((radius - 0.5) ** 2) / 0.02)


def main() -> None:
    decomposition = BlockDecomposition(NUM_TASKS, CELLS_PER_TASK)
    print(f"{NUM_TASKS} simulated ranks, {decomposition.total_cells} total cells")

    # Build each rank's surface once (the geometry does not change per camera).
    rank_scenes = []
    for rank in range(NUM_TASKS):
        grid = decomposition.block_grid_with_field(rank, "scalar", shell_field)
        surface = external_faces(grid, scalar_field="scalar")
        rank_scenes.append(Scene(surface))

    compositor = Compositor("radix-k")
    per_frame_seconds = []
    for angle_index in range(NUM_CAMERA_ANGLES):
        camera = Camera.framing_bounds(
            decomposition.global_bounds,
            IMAGE_SIZE,
            IMAGE_SIZE,
            azimuth_degrees=360.0 * angle_index / NUM_CAMERA_ANGLES,
            elevation_degrees=25.0,
        )
        framebuffers = []
        local_seconds = 0.0
        for scene in rank_scenes:
            tracer = RayTracer(scene, RayTracerConfig(workload=Workload.SHADING))
            result = tracer.render(camera)
            local_seconds = max(local_seconds, result.seconds_excluding("bvh_build"))
            framebuffers.append(result.framebuffer)
        composite = compositor.composite(framebuffers, mode="depth")
        per_frame_seconds.append(local_seconds + composite.total_seconds)
        path = write_ppm(f"image_database_{angle_index:03d}.ppm", composite.framebuffer)
        active_fraction = composite.average_active_pixels / composite.num_pixels
        print(
            f"angle {angle_index}: slowest rank {local_seconds:.3f}s, "
            f"compositing {composite.total_seconds * 1e3:.2f}ms "
            f"({composite.bytes_exchanged / 1e6:.1f} MB exchanged, "
            f"avg(AP) {active_fraction:.0%} of pixels run-length compressed) -> {path}"
        )

    print(f"\nmeasured mean frame cost: {np.mean(per_frame_seconds):.3f}s "
          f"(~{int(60.0 / np.mean(per_frame_seconds))} images per minute at this scale)")

    # Extrapolate with the fitted models: the Figure 14 question at paper scale,
    # answered by the report's own emitter.
    print("\nfitting the performance models (small sweep)...")
    corpus = run_study(StudyConfiguration(samples_per_technique=8, seed=5))
    suite = ModelSuite.fit_corpus(corpus)
    print()
    print(fig14_images_per_budget(suite, corpus)[1])


if __name__ == "__main__":
    main()

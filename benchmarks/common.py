"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see the
per-experiment index in DESIGN.md).  The helpers here provide:

* formatted table printing (so ``pytest benchmarks/ --benchmark-only -s``
  shows the same rows/series the paper reports),
* the scaled-down data-set pool used by the Chapter II/III substrate tables,
* synthetic per-device throughput estimation via the observed features of a
  real host render plus :class:`repro.machines.costmodel.KernelCostModel`
  (the hardware substitution documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Camera, isosurface_marching_tets, make_named_dataset, tetrahedralize_uniform_grid
from repro.geometry.triangles import TriangleMesh
from repro.machines import KernelCostModel
from repro.rendering import RayTracer, RayTracerConfig, Scene, Workload
from repro.rendering.result import ObservedFeatures

__all__ = [
    "print_table",
    "DatasetScene",
    "surface_scene_pool",
    "volume_dataset_pool",
    "synthetic_fps",
    "synthetic_rays_per_second",
    "observed_surface_features",
]

#: Image size used by the Chapter II/III substrate benchmarks (the paper uses
#: 1080p / 1024^2; the reproduction scales down but reports full-scale numbers
#: through the cost model).
BENCH_IMAGE_SIZE = 96

#: Larger image size of the float32-vs-float64 traversal floor
#: (`bench_traversal_throughput.py`).
BENCH_IMAGE_SIZE_LARGE = 192

#: Full-scale pixel count the synthetic throughput numbers are quoted at.
FULL_SCALE_PIXELS = 1920 * 1080


def print_table(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Print a fixed-width table (benchmarks run with ``-s`` to show it)."""
    widths = [max(len(str(header)), *(len(str(row[i])) for row in rows)) if rows else len(str(header))
              for i, header in enumerate(headers)]
    line = "  ".join(str(header).ljust(width) for header, width in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))


@dataclass
class DatasetScene:
    """One entry of the study's data-set pool: a named triangle scene."""

    name: str
    scene: Scene
    camera: Camera

    @property
    def num_triangles(self) -> int:
        return self.scene.num_triangles


def _isosurface_scene(dataset: str, dims: int, isovalue: float, seed: int) -> DatasetScene:
    grid = make_named_dataset(dataset, (dims, dims, dims), seed=seed)
    field = next(iter(grid.point_fields))
    surface = isosurface_marching_tets(grid, field, isovalue)
    if surface.num_triangles == 0:
        values = np.asarray(grid.point_fields[field])
        surface = isosurface_marching_tets(grid, field, float(np.median(values)))
    scene = Scene(surface)
    camera = Camera.framing_bounds(surface.bounds, BENCH_IMAGE_SIZE, BENCH_IMAGE_SIZE)
    return DatasetScene(f"{dataset}-{dims}", scene, camera)


_SCENE_POOL: list[DatasetScene] | None = None
_VOLUME_POOL: list[tuple[str, object]] | None = None


def surface_scene_pool() -> list[DatasetScene]:
    """Scaled-down stand-ins for the RM / LT / Seismic / model scenes (cached)."""
    global _SCENE_POOL
    if _SCENE_POOL is None:
        _SCENE_POOL = [
            _isosurface_scene("rm", 25, 0.5, seed=3),
            _isosurface_scene("rm", 19, 0.5, seed=3),
            _isosurface_scene("rm", 15, 0.5, seed=3),
            _isosurface_scene("lead-telluride", 17, 0.4, seed=5),
            _isosurface_scene("seismic", 17, 0.6, seed=7),
            _isosurface_scene("enzo", 15, 0.4, seed=9),
        ]
    return _SCENE_POOL


def volume_dataset_pool() -> list[tuple[str, object]]:
    """Scaled-down Enzo / Nek5000 tetrahedral data sets (cached)."""
    global _VOLUME_POOL
    if _VOLUME_POOL is None:
        _VOLUME_POOL = []
        for name, dims, seed in (("enzo", 13, 1), ("enzo", 17, 1), ("nek5000", 15, 2), ("enzo", 21, 1)):
            grid = make_named_dataset(name, (dims, dims, dims), seed=seed)
            field = next(iter(grid.point_fields))
            tets = tetrahedralize_uniform_grid(grid)
            _VOLUME_POOL.append((f"{name}-{dims}", (grid, tets, field)))
    return _VOLUME_POOL


def observed_surface_features(entry: DatasetScene) -> ObservedFeatures:
    """Observed model inputs from one real (host) shaded render of the scene."""
    tracer = RayTracer(entry.scene, RayTracerConfig(workload=Workload.SHADING))
    result = tracer.render(entry.camera)
    return result.features


def _scaled_features(features: ObservedFeatures, scale_objects: float) -> ObservedFeatures:
    """Scale observed features up to full-scale image/object counts."""
    pixel_scale = FULL_SCALE_PIXELS / float(BENCH_IMAGE_SIZE * BENCH_IMAGE_SIZE)
    return ObservedFeatures(
        objects=int(features.objects * scale_objects),
        active_pixels=int(features.active_pixels * pixel_scale),
        visible_objects=int(features.visible_objects * scale_objects) if features.visible_objects else 0,
        pixels_per_triangle=features.pixels_per_triangle,
        samples_per_ray=features.samples_per_ray,
        cells_spanned=features.cells_spanned,
    )


def synthetic_fps(architecture: str, features: ObservedFeatures, technique: str = "raytrace",
                  object_scale: float = 100.0, include_build: bool = False, seed: int = 1) -> float:
    """Frames per second the named device would achieve at full scale.

    The observed features of a reduced-scale host render are scaled to the
    paper's image/object sizes and pushed through the device's synthetic cost
    model -- this is how the Chapter II/III tables are regenerated without
    the original hardware.
    """
    scaled = _scaled_features(features, object_scale)
    model = KernelCostModel(architecture, seed=seed)
    return model.frames_per_second(technique, scaled, include_build=include_build)


def synthetic_rays_per_second(architecture: str, features: ObservedFeatures,
                              object_scale: float = 100.0, seed: int = 1) -> float:
    """Primary rays per second (WORKLOAD1) for the named device at full scale."""
    scaled = _scaled_features(features, object_scale)
    model = KernelCostModel(architecture, seed=seed)
    phases = model.phases("raytrace", scaled, include_build=False)
    return scaled.active_pixels / max(phases["trace"], 1e-12)

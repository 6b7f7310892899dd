"""Quickstart: render a synthetic data set three ways and fit a performance model.

Run with ``python examples/quickstart.py``.  The script

1. builds a small Richtmyer-Meshkov-like data set,
2. extracts an isosurface and renders it with the ray tracer and the
   rasterizer,
3. volume renders the same grid, saving all three images as PPM files, and
4. fits the volume-rendering performance model (Eq. 5.3) to a handful of
   renders at different image sizes and prints its coefficients and a
   prediction for a larger image.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Camera, isosurface_marching_tets, make_named_dataset
from repro.insitu.imageio import write_ppm
from repro.modeling.models import make_model
from repro.rendering import (
    Rasterizer,
    RayTracer,
    RayTracerConfig,
    Scene,
    StructuredVolumeConfig,
    StructuredVolumeRenderer,
    Workload,
)


def main() -> None:
    # 1. A synthetic stand-in for the Richtmyer-Meshkov density field.
    grid = make_named_dataset("rm", (25, 25, 25), seed=7)
    print(f"data set: {grid.num_cells} cells, bounds diagonal {grid.bounds.diagonal:.2f}")

    # 2. Surface rendering: isosurface -> ray tracer and rasterizer.
    surface = isosurface_marching_tets(grid, "density", 0.5)
    scene = Scene(surface)
    camera = Camera.framing_bounds(surface.bounds, 160, 160)
    print(f"isosurface: {surface.num_triangles} triangles")

    ray_traced = RayTracer(scene, RayTracerConfig(workload=Workload.FULL)).render(camera)
    write_ppm("quickstart_raytraced.ppm", ray_traced.framebuffer)
    print(f"ray traced  in {ray_traced.total_seconds:.3f}s "
          f"(BVH build {ray_traced.phase_seconds['bvh_build']:.3f}s, "
          f"{ray_traced.features.active_pixels} active pixels)")

    rasterized = Rasterizer(scene).render(camera)
    write_ppm("quickstart_rasterized.ppm", rasterized.framebuffer)
    print(f"rasterized  in {rasterized.total_seconds:.3f}s "
          f"({rasterized.features.visible_objects} visible triangles, "
          f"{rasterized.features.pixels_per_triangle:.1f} pixels/triangle)")

    # 3. Volume rendering of the same grid.
    volume = StructuredVolumeRenderer(grid, "density", config=StructuredVolumeConfig(samples_in_depth=150))
    volume_result = volume.render(camera)
    write_ppm("quickstart_volume.ppm", volume_result.framebuffer)
    print(f"volume render in {volume_result.total_seconds:.3f}s "
          f"({volume_result.features.samples_per_ray:.0f} samples/ray)")

    # 4. Fit the Eq. 5.3 volume-rendering model to a few image sizes and predict a bigger one.
    features, times = [], []
    for size in (48, 64, 96, 128, 160):
        cam = Camera.framing_bounds(grid.bounds, size, size)
        result = StructuredVolumeRenderer(grid, "density", config=StructuredVolumeConfig(samples_in_depth=100)).render(cam)
        features.append(result.features)
        times.append(result.total_seconds)
    model = make_model("volume")
    model.fit(features, np.array(times))
    print("\nfitted volume-rendering model (T = c0*AP*CS + c1*AP*SPR + c2):")
    for name, value in model.coefficients.items():
        print(f"  {name} = {value:.3e}")
    print(f"  R^2 = {model.r_squared:.4f}")

    big_camera = Camera.framing_bounds(grid.bounds, 288, 288)
    big = StructuredVolumeRenderer(grid, "density", config=StructuredVolumeConfig(samples_in_depth=100))
    predicted = model.predict(features[-1].__class__(
        objects=grid.num_cells,
        active_pixels=int(features[-1].active_pixels * (288 / 160) ** 2),
        samples_per_ray=features[-1].samples_per_ray,
        cells_spanned=features[-1].cells_spanned,
    ))
    actual = big.render(big_camera).total_seconds
    print(f"\nprediction for a 288^2 image: {predicted:.3f}s   measured: {actual:.3f}s")


if __name__ == "__main__":
    main()

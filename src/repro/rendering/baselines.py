"""Baseline comparator renderers.

The dissertation's studies compare the data-parallel renderers against
architecture-specialised community codes: NVIDIA OptiX Prime and Intel Embree
for ray tracing (Tables 3-5), HAVS and the Bunyk et al. unstructured ray
caster plus VisIt's sampling renderer for volume rendering (Tables 6-9,
Figures 6-7).  None of those packages is usable here (closed source, GPU
hardware, heavyweight C++ stacks), so this module provides Python stand-ins
that occupy the same design points:

* :class:`SpecializedRayTracer` -- the Embree / OptiX role: same intersection
  mathematics, but a higher-quality SAH BVH, a larger leaf size tuned for the
  batch intersector, no data-parallel-primitive instrumentation, and no
  breadth-first pipeline bookkeeping.  Its throughput advantage over the DPP
  ray tracer plays the role of the 1.6x-2.6x gap the paper reports.
* :class:`ProjectedTetrahedraRenderer` -- the HAVS role: an object-order
  projected-tetrahedra renderer whose cost is dominated by a visibility sort
  plus per-tet splatting, so run time correlates strongly with data size (the
  trend the paper observes for HAVS).
* :class:`ConnectivityRayCaster` -- the Bunyk role: an image-order ray caster
  over the tetrahedra that marches each ray in fixed steps and locates the
  containing cell with a uniform-grid locator built in a pre-processing step
  (the analogue of Bunyk's face-connectivity pre-process).
* :class:`VisItStyleSampler` -- the VisIt role: a sampling renderer that
  "rasterizes" cells into a full sample buffer in one pass without early ray
  termination, then composites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.mesh import UnstructuredTetMesh
from repro.geometry.transforms import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.rays import RayEmitter, pixel_boxes
from repro.rendering.raytracer.bvh import build_bvh
from repro.rendering.raytracer.traversal import closest_hit
from repro.rendering.result import ObservedFeatures, PhaseClock, RenderResult
from repro.rendering.scene import Scene
from repro.rendering.volume.transfer_function import TransferFunction
from repro.rendering.volume.unstructured import UnstructuredVolumeConfig, UnstructuredVolumeRenderer
from repro.util.packing import chunk_ranges, segment_local_indices
from repro.util.timing import Timer

__all__ = [
    "SpecializedRayTracer",
    "ProjectedTetrahedraRenderer",
    "ConnectivityRayCaster",
    "VisItStyleSampler",
]

#: Leaf size of the specialised ray tracer's SAH BVH, tuned for its batch
#: intersector (the study's "maximum leaf size of eight triangles").
SPECIALIZED_LEAF_SIZE = 8

#: (tet, pixel) splat pairs the projected-tetrahedra renderer handles per batch.
SPLAT_PAIR_CHUNK = 4_000_000

#: Bins per axis of the connectivity ray caster's uniform-grid cell locator.
LOCATOR_RESOLUTION = 24


@dataclass
class SpecializedRayTracer:
    """Embree / OptiX-style specialised intersector (WORKLOAD1 comparisons)."""

    scene: Scene
    _bvh=None

    def __post_init__(self) -> None:
        self._bvh = None
        self.build_seconds = 0.0

    def build(self) -> None:
        """Build (once) the high-quality SAH BVH."""
        if self._bvh is None:
            with Timer() as timer:
                self._bvh = build_bvh(self.scene.mesh, leaf_size=SPECIALIZED_LEAF_SIZE, method="sah")
            self.build_seconds = timer.elapsed

    def trace(self, camera: Camera) -> tuple[int, float]:
        """Trace one primary ray per pixel; returns ``(rays, seconds)``.

        Only the intersection work is timed, matching the WORKLOAD1
        methodology ("this only measures intersection time").
        """
        self.build()
        pixel_ids = np.arange(camera.width * camera.height, dtype=np.int64)
        origins, directions = camera.generate_rays(pixel_ids)
        with Timer() as timer:
            closest_hit(self._bvh, self.scene.mesh, origins, directions)
        return len(pixel_ids), timer.elapsed

    def rays_per_second(self, camera: Camera) -> float:
        """Primary-ray throughput for one frame."""
        rays, seconds = self.trace(camera)
        return rays / max(seconds, 1e-12)


@dataclass
class ProjectedTetrahedraRenderer:
    """HAVS-style projected-tetrahedra volume renderer.

    Tets are sorted back to front by view depth and splatted onto the image;
    each splat composites the cell's mean scalar with an opacity scaled by the
    cell's depth extent.  Compared with the sampling renderer, cost follows
    the number of cells far more than the number of pixels -- the behaviour
    the paper attributes to HAVS.
    """

    mesh: UnstructuredTetMesh
    field_name: str
    transfer_function: TransferFunction | None = None

    def __post_init__(self) -> None:
        if self.transfer_function is None:
            values = np.asarray(self.mesh.point_fields[self.field_name])
            self.transfer_function = TransferFunction(
                scalar_range=(float(values.min()), float(values.max())),
                unit_distance=max(self.mesh.bounds.diagonal / 100.0, 1e-12),
            )

    def render(self, camera: Camera) -> RenderResult:
        clock = PhaseClock("havs_proxy")
        framebuffer = Framebuffer(camera.width, camera.height)
        features = ObservedFeatures(objects=self.mesh.num_cells)
        width, height = camera.width, camera.height

        with clock.phase("sort"):
            points = self.mesh.points()
            screen, w = camera.world_to_screen(points)
            depth = camera.depth_along_view(points)
            corner = self.mesh.connectivity
            scalars = np.asarray(self.mesh.point_fields[self.field_name], dtype=np.float64)
            cell_scalar = scalars[corner].mean(axis=1)
            cell_depth = depth[corner].mean(axis=1)
            cell_extent = depth[corner].max(axis=1) - depth[corner].min(axis=1)
            order = np.argsort(-cell_depth, kind="stable")  # back to front

        with clock.phase("rasterize"):
            # Every splat covers at least one pixel, as the sampler's tets do.
            lo, hi = pixel_boxes(screen[corner][..., :2], width, height)
            lo = np.minimum(lo, [width - 1, height - 1])
            box_w, box_h = np.maximum(hi - lo, 1).T
            in_front = np.all(w[corner] > 0.0, axis=1)
            footprint = box_w * box_h * in_front
            accum_rgb = np.zeros((width * height, 3))
            accum_alpha = np.zeros(width * height)
            ordered = order[footprint[order] > 0]
            tf = self.transfer_function
            rgb_all, alpha_all = tf.sample(cell_scalar, step_length=None)
            for start, end in chunk_ranges(footprint[ordered], SPLAT_PAIR_CHUNK):
                chunk = ordered[start:end]
                counts = footprint[chunk]
                tet_of_pair = np.repeat(np.arange(len(chunk)), counts)
                local = segment_local_indices(counts)
                w_rep = np.repeat(box_w[chunk], counts)
                px = lo[chunk][tet_of_pair, 0] + local % w_rep
                py = lo[chunk][tet_of_pair, 1] + local // w_rep
                pixel = py * width + px
                tids = chunk[tet_of_pair]
                alpha = 1.0 - np.power(
                    1.0 - np.clip(alpha_all[tids], 0.0, 0.999),
                    np.maximum(cell_extent[tids], 1e-6) / max(self.mesh.bounds.diagonal / 100.0, 1e-12),
                )
                rgb = rgb_all[tids]
                # Back-to-front OVER accumulation (scatter with last-write wins per
                # chunk is acceptable because cells arrive depth-sorted).
                accum_rgb[pixel] = alpha[:, None] * rgb + (1.0 - alpha[:, None]) * accum_rgb[pixel]
                accum_alpha[pixel] = alpha + (1.0 - alpha) * accum_alpha[pixel]

        features.active_pixels = int(np.count_nonzero(accum_alpha > 0.0))
        written = np.flatnonzero(accum_alpha > 0.0)
        rgba = np.concatenate([accum_rgb, accum_alpha[:, None]], axis=1)
        # Covered pixels follow the shared depth convention (nearest data
        # depth, as the sampling volume renderer reports); misses stay inf.
        # Only cells actually splatted count -- behind-camera vertices must
        # not drag the layer depth negative.
        nearest = float(cell_depth[ordered].min()) if len(ordered) else np.inf
        framebuffer.write_pixels(written, rgba[written], np.full(len(written), max(nearest, 0.0)))
        return RenderResult(framebuffer, clock.seconds, features, technique="havs_proxy")


@dataclass
class ConnectivityRayCaster:
    """Bunyk-style image-order unstructured ray caster with a cell locator.

    A pre-processing step bins tetrahedra into a coarse uniform grid (the
    stand-in for Bunyk's serial face-connectivity construction, which the
    paper notes took tens of minutes at scale and is excluded from timings).
    Rendering then marches every ray in fixed steps, looks up candidate cells
    from the locator, and interpolates the scalar of the first containing
    cell at each step.
    """

    mesh: UnstructuredTetMesh
    field_name: str
    transfer_function: TransferFunction | None = None
    samples_in_depth: int = 120

    def __post_init__(self) -> None:
        if self.transfer_function is None:
            values = np.asarray(self.mesh.point_fields[self.field_name])
            self.transfer_function = TransferFunction(
                scalar_range=(float(values.min()), float(values.max())),
                unit_distance=max(self.mesh.bounds.diagonal / 100.0, 1e-12),
            )
        self._locator = None
        self.preprocess_seconds = 0.0

    # -- pre-processing -------------------------------------------------------------
    def preprocess(self) -> None:
        """Build the uniform-grid cell locator (timed separately, as in the paper)."""
        if self._locator is not None:
            return
        with Timer() as timer:
            bounds = self.mesh.bounds
            res = LOCATOR_RESOLUTION
            centers = self.mesh.cell_centers()
            extent = np.maximum(bounds.extent, 1e-12)
            bin_of = np.clip(((centers - bounds.low) / extent * res).astype(np.int64), 0, res - 1)
            flat = bin_of[:, 0] + res * (bin_of[:, 1] + res * bin_of[:, 2])
            order = np.argsort(flat, kind="stable")
            sorted_bins = flat[order]
            starts = np.searchsorted(sorted_bins, np.arange(res**3))
            ends = np.searchsorted(sorted_bins, np.arange(res**3), side="right")
            self._locator = (order, starts, ends, res)
        self.preprocess_seconds = timer.elapsed

    def render(self, camera: Camera) -> RenderResult:
        self.preprocess()
        clock = PhaseClock("bunyk_proxy")
        framebuffer = Framebuffer(camera.width, camera.height)
        features = ObservedFeatures(objects=self.mesh.num_cells)
        order, starts, ends, res = self._locator
        bounds = self.mesh.bounds
        extent = np.maximum(bounds.extent, 1e-12)
        cell_scalar = np.asarray(self.mesh.point_fields[self.field_name])[self.mesh.connectivity].mean(axis=1)
        tf = self.transfer_function

        with clock.phase("ray_setup"):
            active_ids, o, d, near, far = RayEmitter(camera).emit_clipped(bounds)

        with clock.phase("march"):
            step = bounds.diagonal / self.samples_in_depth
            accum_rgb = np.zeros((len(active_ids), 3))
            accum_alpha = np.zeros(len(active_ids))
            n_steps = int(np.ceil((far - near).max() / step)) if len(active_ids) else 0
            for index in range(n_steps):
                t = near + (index + 0.5) * step
                inside_ray = t < far
                if not np.any(inside_ray):
                    break
                position = o + t[:, None] * d
                bin_of = np.clip(((position - bounds.low) / extent * res).astype(np.int64), 0, res - 1)
                flat = bin_of[:, 0] + res * (bin_of[:, 1] + res * bin_of[:, 2])
                # Use the first cell binned in the sample's locator bucket as the
                # containing-cell approximation (cell-average scalar).
                has_cell = (ends[flat] > starts[flat]) & inside_ray
                scalar = np.zeros(len(active_ids))
                cells = order[starts[flat[has_cell]]]
                scalar[has_cell] = cell_scalar[cells]
                rgb, alpha = tf.sample(scalar, step_length=step)
                alpha = np.where(has_cell, alpha, 0.0)
                weight = (1.0 - accum_alpha) * alpha
                accum_rgb += weight[:, None] * rgb
                accum_alpha += weight

        features.active_pixels = int(np.count_nonzero(accum_alpha > 0.0))
        features.samples_per_ray = float(n_steps)
        rgba = np.concatenate([accum_rgb, accum_alpha[:, None]], axis=1)
        covered = accum_alpha > 0.0
        written = active_ids[covered]
        # Covered pixels report their ray's entry distance (the shared depth
        # convention); misses stay inf.
        framebuffer.write_pixels(written, rgba[covered], near[covered])
        return RenderResult(framebuffer, clock.seconds, features, technique="bunyk_proxy")


@dataclass
class VisItStyleSampler:
    """VisIt-style sampling volume renderer: single pass, no early termination.

    Reuses the unstructured sampling machinery but always runs a single pass
    with early termination disabled, reproducing the structural differences
    the paper describes between its renderer and VisIt's (Table 9 analysis).
    """

    mesh: UnstructuredTetMesh
    field_name: str
    samples_in_depth: int = 200

    def render(self, camera: Camera) -> RenderResult:
        renderer = UnstructuredVolumeRenderer(
            self.mesh,
            self.field_name,
            config=UnstructuredVolumeConfig(
                samples_in_depth=self.samples_in_depth,
                num_passes=1,
                early_termination_alpha=1.0,
            ),
        )
        result = renderer.render(camera)
        result.technique = "visit_proxy"
        return result

"""The breadth-first, data-parallel ray-tracing pipeline (Chapter II).

The renderer processes all rays of a generation together through a fixed
sequence of pipeline stages built from data-parallel primitives:

1. **Primary ray generation** (map) -- one ray per pixel the mesh bounds
   can cover (or four with super-sampling), ordered along a Morton curve of
   the framebuffer.
2. **Traversal and intersection** (map) -- BVH traversal and Moller-Trumbore
   intersection, the "if-if" structure of Aila and Laine.
3. **Stream compaction** (reduce/scan/gather, ``Workload.FULL`` only) --
   drop rays that missed all geometry before the more expensive secondary
   stages.
4. **Ambient occlusion** (scatter + map) -- a user-defined number of random
   hemisphere rays per hit with a short maximum distance.
5. **Shadows** (map) -- one visibility ray per hit per light.
6. **Shading and accumulation** (map / gather) -- Blinn-Phong plus color-table
   lookup, accumulated to the framebuffer; super-samples are averaged by a
   gather (anti-aliasing).

The three study workloads select progressively more of these stages:

* ``Workload.INTERSECTION_ONLY`` (WORKLOAD1) -- stages 1-2, the Mrays/s
  benchmark configuration.
* ``Workload.SHADING`` (WORKLOAD2) -- stages 1-2 plus direct shading, the
  rasterization-equivalent scientific-visualization configuration.
* ``Workload.FULL`` (WORKLOAD3) -- everything, including four-sample ambient
  occlusion, shadows, anti-aliasing, and stream compaction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.dpp.primitives import map_field, stream_compact
from repro.geometry.transforms import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.raytracer.bvh import BVH, build_bvh
from repro.rendering.raytracer.shading import (
    blinn_phong,
    hemisphere_samples,
    interpolate_normals,
    interpolate_scalars,
    occlusion_to_ambient,
)
from repro.rendering.raytracer.traversal import any_hit, closest_hit
from repro.rendering.rays import REACH_MARGIN, RayEmitter
from repro.rendering.result import ObservedFeatures, PhaseClock, RenderResult
from repro.rendering.scene import Scene
from repro.util.rng import default_rng
from repro.util.timing import Timer

__all__ = ["Workload", "RayTracerConfig", "RayTracer"]

#: Ambient-occlusion ray length as a fraction of the scene diagonal.
AO_DISTANCE_FRACTION = 0.05

#: Weight of the bounce color in a single-bounce reflection blend.
REFLECTION_ATTENUATION = 0.3


class Workload(enum.Enum):
    """The three ray-tracing workloads of the study (Section 2.5)."""

    INTERSECTION_ONLY = 1
    SHADING = 2
    FULL = 3


@dataclass
class RayTracerConfig:
    """Tunable parameters of the ray tracer.

    The acceleration structure is always the LBVH at
    :data:`~repro.rendering.raytracer.bvh.DEFAULT_LEAF_SIZE` (the SAH build
    serves the specialised baselines), and dead rays are stream-compacted
    exactly when the workload is ``Workload.FULL``.

    Attributes
    ----------
    workload:
        Which study workload to execute.
    ao_samples:
        Hemisphere samples per hit for ambient occlusion (WORKLOAD3).
    supersample:
        Rays per pixel; 4 enables the study's anti-aliasing.
    reflections:
        Optional single-bounce specular reflections (off in all study
        workloads; provided as the paper's algorithm supports them).
    seed:
        RNG seed for the AO sample directions.
    """

    workload: Workload = Workload.SHADING
    ao_samples: int = 4
    supersample: int = 1
    reflections: bool = False
    seed: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.workload, int):
            self.workload = Workload(self.workload)
        if self.supersample not in (1, 4):
            raise ValueError("supersample must be 1 or 4")
        if self.ao_samples < 1:
            raise ValueError("ao_samples must be positive")


@dataclass
class RayTracer:
    """Data-parallel ray tracer over a triangle :class:`~repro.rendering.scene.Scene`.

    The BVH is built lazily on first use and cached, so repeated renders of
    the same scene amortise the build exactly as the repeated-rendering use
    cases of Section 5.9 assume.
    """

    scene: Scene
    config: RayTracerConfig = field(default_factory=RayTracerConfig)
    _bvh: BVH | None = None
    _bvh_seconds: float = 0.0

    # -- acceleration structure ---------------------------------------------------
    def build_acceleration_structure(self, force: bool = False) -> BVH:
        """Build (or return the cached) BVH, recording its build time."""
        if self._bvh is None or force:
            with Timer() as timer:
                self._bvh = build_bvh(self.scene.mesh)
            self._bvh_seconds = timer.elapsed
        return self._bvh

    # -- ray generation --------------------------------------------------------------
    def _generate_rays(self, camera: Camera) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Primary rays in Morton order via the shared :class:`RayEmitter`.

        Only pixels whose center ray can reach the mesh bounds, grown by
        :data:`~repro.rendering.rays.REACH_MARGIN` as the pixel bound grows
        them, get a ray; a ray outside them would miss every triangle.
        """
        emitter = RayEmitter(camera, supersample=self.config.supersample, morton_order=True)
        bounds = self.scene.mesh.bounds
        return emitter.emit(bounds.expanded(REACH_MARGIN * bounds.diagonal))

    def visibility_depth(self, camera: Camera) -> float:
        """Distance from the camera to the scene center (for visibility ordering)."""
        return camera.visibility_distance(self.scene.mesh.bounds)

    # -- main entry point ---------------------------------------------------------------
    def render(self, camera: Camera) -> RenderResult:
        """Render the scene from ``camera`` and return the image plus measurements."""
        config = self.config
        clock = PhaseClock("raytrace")
        mesh = self.scene.mesh

        # The build is cached across renders; every render reports the seconds
        # the one build took.
        bvh = self.build_acceleration_structure()
        clock.add("bvh_build", self._bvh_seconds)

        with clock.phase("ray_setup"):
            pixel_ids, origins, directions = self._generate_rays(camera)

        with clock.phase("trace"):
            hits = closest_hit(bvh, mesh, origins, directions)

        framebuffer = Framebuffer(camera.width, camera.height)
        features = ObservedFeatures(objects=mesh.num_triangles)

        hit_mask = hits.hit_mask
        features.active_pixels = int(len(np.unique(pixel_ids[hit_mask])))

        if config.workload is Workload.INTERSECTION_ONLY:
            # The Mrays/s benchmark writes only the hit distance as grayscale.
            self._write_depth_image(framebuffer, camera, pixel_ids, hits)
            return RenderResult(framebuffer, clock.seconds, features, technique="raytrace")

        # The full workload compacts away rays that missed everything before shading.
        if config.workload is Workload.FULL:
            with clock.phase("compaction"):
                _, (pixel_ids, origins, directions, tri, t, u, v) = stream_compact(
                    hit_mask,
                    pixel_ids,
                    origins,
                    directions,
                    hits.triangle,
                    hits.t,
                    hits.u,
                    hits.v,
                )
        else:
            keep = hit_mask
            pixel_ids, origins, directions = pixel_ids[keep], origins[keep], directions[keep]
            tri, t, u, v = hits.triangle[keep], hits.t[keep], hits.u[keep], hits.v[keep]

        if len(tri) == 0:
            return RenderResult(framebuffer, clock.seconds, features, technique="raytrace")

        with clock.phase("shade_setup"):
            points = origins + t[:, None] * directions
            normals = map_field(lambda tr, uu, vv: interpolate_normals(self.scene, tr, uu, vv), tri, u, v)
            scalars = interpolate_scalars(self.scene, tri, u, v)
            vmin, vmax = self.scene.scalar_range or (None, None)
            base_colors = self.scene.color_table.map_scalars(scalars, vmin, vmax)
            view_dirs = -directions

        ambient = None
        visibility = None
        if config.workload is Workload.FULL:
            with clock.phase("ambient_occlusion"):
                ambient = self._ambient_occlusion(bvh, points, normals)
            with clock.phase("shadows"):
                visibility = self._shadows(bvh, points)

        with clock.phase("shade"):
            shaded = map_field(
                lambda p, n, vd, bc: blinn_phong(self.scene, p, n, vd, bc, visibility, ambient),
                points,
                normals,
                view_dirs,
                base_colors,
            )
        if config.reflections:
            with clock.phase("reflections"):
                shaded = self._add_reflections(bvh, points, directions, normals, shaded)

        with clock.phase("accumulate"):
            self._accumulate(framebuffer, camera, pixel_ids, shaded, t)
        return RenderResult(framebuffer, clock.seconds, features, technique="raytrace")

    # -- secondary ray stages ---------------------------------------------------------
    def _ambient_occlusion(self, bvh: BVH, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Trace hemispheric occlusion rays and return per-hit ambient factors."""
        config = self.config
        rng = default_rng(config.seed, "raytrace-ao")
        sample_dirs = hemisphere_samples(normals, config.ao_samples, rng)
        sample_origins = np.repeat(points, config.ao_samples, axis=0)
        # Offset origins slightly along the normal to avoid self-hits.
        sample_origins = sample_origins + 1e-4 * np.repeat(normals, config.ao_samples, axis=0)
        max_distance = AO_DISTANCE_FRACTION * max(self.scene.mesh.bounds.diagonal, 1e-12)
        occluded = any_hit(bvh, self.scene.mesh, sample_origins, sample_dirs, t_max=max_distance)
        return occlusion_to_ambient(occluded, config.ao_samples)

    def _shadows(self, bvh: BVH, points: np.ndarray) -> np.ndarray:
        """Trace shadow rays toward every light; returns (n_hits, n_lights) visibility.

        All lights' visibility rays are traced through a single batched
        ``any_hit`` query with a per-ray distance limit, so the traversal
        engine sees one wide frontier instead of one narrow query per light.
        """
        n_points = len(points)
        light_positions = np.stack([light.position for light in self.scene.lights])
        to_light = light_positions[None, :, :] - points[:, None, :]  # (n, lights, 3)
        distance = np.linalg.norm(to_light, axis=2)
        distance[distance == 0.0] = 1.0
        directions = to_light / distance[:, :, None]
        origins = points[:, None, :] + 1e-4 * directions
        blocked = any_hit(
            bvh,
            self.scene.mesh,
            origins.reshape(-1, 3),
            directions.reshape(-1, 3),
            t_max=(distance - 1e-3).ravel(),
        )
        return 1.0 - blocked.reshape(n_points, len(self.scene.lights)).astype(np.float64)

    def _add_reflections(
        self,
        bvh: BVH,
        points: np.ndarray,
        directions: np.ndarray,
        normals: np.ndarray,
        shaded: np.ndarray,
    ) -> np.ndarray:
        """Single-bounce specular reflections blended into the shaded color."""
        reflect_dirs = directions - 2.0 * np.einsum("ij,ij->i", directions, normals)[:, None] * normals
        origins = points + 1e-4 * reflect_dirs
        bounce = closest_hit(bvh, self.scene.mesh, origins, reflect_dirs)
        mask = bounce.hit_mask
        if np.any(mask):
            scalars = interpolate_scalars(self.scene, bounce.triangle[mask], bounce.u[mask], bounce.v[mask])
            vmin, vmax = self.scene.scalar_range or (None, None)
            bounce_colors = self.scene.color_table.map_scalars(scalars, vmin, vmax)
            weight = REFLECTION_ATTENUATION
            shaded = shaded.copy()
            shaded[mask] = np.clip((1.0 - weight) * shaded[mask] + weight * bounce_colors, 0.0, 1.0)
        return shaded

    # -- framebuffer writes --------------------------------------------------------------
    def _accumulate(
        self,
        framebuffer: Framebuffer,
        camera: Camera,
        pixel_ids: np.ndarray,
        colors: np.ndarray,
        distances: np.ndarray,
    ) -> None:
        """Average super-samples per pixel and write color + depth."""
        order = np.argsort(pixel_ids, kind="stable")
        sorted_pixels = pixel_ids[order]
        sorted_colors = colors[order]
        sorted_depth = distances[order]
        unique_pixels, starts, counts = np.unique(sorted_pixels, return_index=True, return_counts=True)
        summed = np.add.reduceat(sorted_colors, starts, axis=0)
        averaged = summed / counts[:, None]
        depth = np.minimum.reduceat(sorted_depth, starts)
        rgba = np.concatenate([averaged, np.ones((len(averaged), 1))], axis=1)
        framebuffer.write_pixels(unique_pixels, rgba, depth)

    def _write_depth_image(
        self, framebuffer: Framebuffer, camera: Camera, pixel_ids: np.ndarray, hits
    ) -> None:
        """Grayscale nearest-hit distance image for WORKLOAD1."""
        mask = hits.hit_mask
        if not np.any(mask):
            return
        t = hits.t[mask]
        normalized = 1.0 - (t - t.min()) / max(t.max() - t.min(), 1e-12)
        rgba = np.column_stack([normalized, normalized, normalized, np.ones_like(normalized)])
        # For super-sampled renders keep the first sample per pixel.
        pixels = pixel_ids[mask]
        unique_pixels, first = np.unique(pixels, return_index=True)
        framebuffer.write_pixels(unique_pixels, rgba[first], t[first])

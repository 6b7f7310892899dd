"""Barycentric-sampling rasterizer.

The Chapter V study implements rasterization "based on sampling using
barycentric coordinates": every triangle is culled against the view, projected
to screen space, and the pixels inside its screen-space bounding box are
tested with barycentric coordinates; passing pixels fight a depth test.

The performance model (Eq. 5.2) splits the cost into exactly the two stages
implemented here:

* **culling** -- a map over all ``O`` objects classifying them as visible or
  not (``c0 * O``), and
* **rasterization** -- work proportional to the number of visible objects
  multiplied by the average pixel footprint considered per triangle
  (``c1 * VO * PPT``).

The renderer reports the observed ``VO`` and ``PPT`` so the study harness can
fit and validate those terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.transforms import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.rays import pixel_boxes
from repro.rendering.result import ObservedFeatures, PhaseClock, RenderResult
from repro.rendering.scene import Scene
from repro.util.packing import chunk_ranges, segment_local_indices

__all__ = ["Rasterizer"]


#: Maximum (triangle, pixel) candidate pairs rasterized per batch, bounding
#: peak memory.  Read at call time, so tests monkeypatch it to force many
#: batches or one.
PAIR_CHUNK = 2_000_000


@dataclass
class Rasterizer:
    """Object-order renderer over a triangle :class:`~repro.rendering.scene.Scene`.

    Triangles are drawn double-sided (no back-face culling), as scientific
    surfaces usually are.
    """

    scene: Scene

    def render(self, camera: Camera) -> RenderResult:
        """Rasterize the scene from ``camera``."""
        mesh = self.scene.mesh
        clock = PhaseClock("raster")
        framebuffer = Framebuffer(camera.width, camera.height)
        features = ObservedFeatures(objects=mesh.num_triangles)
        if mesh.num_triangles == 0:
            return RenderResult(framebuffer, clock.seconds, features, technique="raster")

        # -- culling phase: classify every triangle against the view -------------
        with clock.phase("culling"):
            screen, w = camera.world_to_screen(mesh.vertices)
            corner_ids = mesh.triangles
            corner_screen = screen[corner_ids]              # (nt, 3, 3)
            corner_w = w[corner_ids]                        # (nt, 3)

            in_front = np.all(corner_w > 0.0, axis=1)
            lo = corner_screen[..., :2].min(axis=1)
            hi = corner_screen[..., :2].max(axis=1)
            on_screen = (
                (hi[:, 0] >= 0.0)
                & (lo[:, 0] < camera.width)
                & (hi[:, 1] >= 0.0)
                & (lo[:, 1] < camera.height)
            )
            visible = in_front & on_screen

        visible_ids = np.flatnonzero(visible)
        features.visible_objects = int(len(visible_ids))
        if len(visible_ids) == 0:
            return RenderResult(framebuffer, clock.seconds, features, technique="raster")

        # -- rasterization phase: barycentric sampling of each footprint ------------
        with clock.phase("rasterize"):
            pixels_considered = self._rasterize_visible(
                camera, framebuffer, visible_ids, corner_screen, corner_ids
            )

        features.pixels_per_triangle = pixels_considered / max(len(visible_ids), 1)
        features.active_pixels = framebuffer.active_pixels()
        clock.add("fragments", 0.0)
        return RenderResult(framebuffer, clock.seconds, features, technique="raster")

    def visibility_depth(self, camera: Camera) -> float:
        """Distance from the camera to the scene center (for visibility ordering)."""
        return camera.visibility_distance(self.scene.mesh.bounds)

    # -- internals ---------------------------------------------------------------------
    def _rasterize_visible(
        self,
        camera: Camera,
        framebuffer: Framebuffer,
        visible_ids: np.ndarray,
        corner_screen: np.ndarray,
        corner_ids: np.ndarray,
    ) -> int:
        """Depth-tested barycentric rasterization of the visible triangles; returns the pixels considered."""
        width, height = camera.width, camera.height
        vertex_colors = self.scene.vertex_colors()

        tri_screen = corner_screen[visible_ids]             # (nv, 3, 3)
        tri_corners = corner_ids[visible_ids]

        # Per-triangle headlight Lambert factor (double-sided) approximating
        # the basic OpenGL shading the study's rasterizer performs.
        normals = self.scene.mesh.normals()[visible_ids]
        centroids = self.scene.mesh.centroids()[visible_ids]
        to_camera = camera.position[None, :] - centroids
        to_camera /= np.maximum(np.linalg.norm(to_camera, axis=1, keepdims=True), 1e-12)
        lambert = 0.3 + 0.7 * np.abs(np.einsum("ij,ij->i", normals, to_camera))

        # Integer pixel bounding boxes, clipped to the viewport; a box may be
        # empty, and its pixels are the footprint PPT counts.
        lo, hi = pixel_boxes(tri_screen[..., :2], width, height)
        box_width, box_height = (hi - lo).T
        footprint = box_width * box_height
        pixels_considered = int(footprint.sum())

        # Candidate (triangle, pixel) pairs, processed in bounded chunks.
        order = np.flatnonzero(footprint > 0)
        for start, end in chunk_ranges(footprint[order], PAIR_CHUNK):
            self._rasterize_chunk(
                framebuffer, order[start:end], tri_screen, tri_corners, lo, box_width,
                box_height, vertex_colors, lambert, width,
            )
        return pixels_considered

    def _rasterize_chunk(
        self,
        framebuffer: Framebuffer,
        chunk: np.ndarray,
        tri_screen: np.ndarray,
        tri_corners: np.ndarray,
        lo: np.ndarray,
        box_width: np.ndarray,
        box_height: np.ndarray,
        vertex_colors: np.ndarray,
        lambert: np.ndarray,
        image_width: int,
    ) -> None:
        """Rasterize one chunk of triangles into the framebuffer."""
        widths = box_width[chunk]
        heights = box_height[chunk]
        counts = widths * heights
        if counts.sum() == 0:
            return
        # Expand each triangle into its candidate pixel list.
        tri_of_pair = np.repeat(np.arange(len(chunk)), counts)
        local = segment_local_indices(counts)
        px = lo[chunk][tri_of_pair, 0] + (local % np.repeat(widths, counts))
        py = lo[chunk][tri_of_pair, 1] + (local // np.repeat(widths, counts))
        sample = np.column_stack([px + 0.5, py + 0.5])

        tri_ids = chunk[tri_of_pair]
        v0 = tri_screen[tri_ids, 0]
        v1 = tri_screen[tri_ids, 1]
        v2 = tri_screen[tri_ids, 2]

        # 2D barycentric coordinates of the pixel centers.
        d00 = v1[:, :2] - v0[:, :2]
        d01 = v2[:, :2] - v0[:, :2]
        dp = sample - v0[:, :2]
        denom = d00[:, 0] * d01[:, 1] - d00[:, 1] * d01[:, 0]
        safe_denom = np.where(np.abs(denom) < 1e-12, 1.0, denom)
        bary_u = (dp[:, 0] * d01[:, 1] - dp[:, 1] * d01[:, 0]) / safe_denom
        bary_v = (d00[:, 0] * dp[:, 1] - d00[:, 1] * dp[:, 0]) / safe_denom
        bary_w = 1.0 - bary_u - bary_v
        inside = (
            (np.abs(denom) >= 1e-12)
            & (bary_u >= 0.0)
            & (bary_v >= 0.0)
            & (bary_w >= 0.0)
        )
        covered = np.flatnonzero(inside)
        if len(covered) == 0:
            return

        # Depth and color only for the covered pairs: a pair's values depend
        # on that pair alone, so they are the ones every candidate would get.
        bary_u, bary_v, bary_w = bary_u[covered], bary_v[covered], bary_w[covered]
        tri_ids = tri_ids[covered]
        depth = bary_w * v0[covered, 2] + bary_u * v1[covered, 2] + bary_v * v2[covered, 2]
        corner = tri_corners[tri_ids]
        colors = (
            bary_w[:, None] * vertex_colors[corner[:, 0]]
            + bary_u[:, None] * vertex_colors[corner[:, 1]]
            + bary_v[:, None] * vertex_colors[corner[:, 2]]
        ) * lambert[tri_ids, None]
        pixel_flat = py[covered] * image_width + px[covered]

        # Depth-test resolution: keep the nearest fragment per pixel.
        order = np.lexsort((depth, pixel_flat))
        pixel_sorted = pixel_flat[order]
        keep = np.ones(len(pixel_sorted), dtype=bool)
        keep[1:] = pixel_sorted[1:] != pixel_sorted[:-1]
        winners = order[keep]

        flat_depth = framebuffer.depth.reshape(-1)
        flat_rgba = framebuffer.rgba.reshape(-1, 4)
        target = pixel_flat[winners]
        closer = depth[winners] < flat_depth[target]
        target = target[closer]
        flat_depth[target] = depth[winners][closer]
        flat_rgba[target, :3] = colors[winners][closer]
        flat_rgba[target, 3] = 1.0

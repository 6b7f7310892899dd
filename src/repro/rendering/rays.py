"""The shared ray emitter: one camera-ray front-end for every image-order renderer.

Before the frontier refactor each image-order renderer carried its own ray
setup -- the ray tracer's Morton-ordered (optionally super-sampled) generator,
and private ray/bounds interval clips in the structured volume caster and the
connectivity ray-caster baseline (one of which lost the sign of tiny negative
direction components).  :class:`RayEmitter` centralizes all of it on top of
:meth:`repro.geometry.transforms.Camera.generate_rays` and the shared slab
test :func:`repro.geometry.aabb.ray_box_intervals`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.geometry.aabb import AABB, ray_box_intervals
from repro.geometry.transforms import Camera
from repro.util.morton import morton_encode_2d

__all__ = ["CameraPath", "RayEmitter", "pixels_reaching"]

#: How far :func:`pixels_reaching` grows a box before the slab test, as a
#: fraction of the box diagonal.  The renderers decide coverage with their own
#: arithmetic (projected barycentrics, Moller-Trumbore, BVH slabs), which can
#: disagree with this module's slab test in the last few ulps for a pixel
#: whose center ray grazes the box silhouette.  On screen the margin is about
#: ``1e-6 * image height`` pixels (under 1e-3 of a pixel up to 1000^2 images):
#: many orders above that rounding, far too small to admit a neighbouring pixel.
REACH_MARGIN = 1e-6


@dataclass
class RayEmitter:
    """Generates primary rays for a camera in a renderer-agnostic way.

    Attributes
    ----------
    camera:
        The pinhole camera rays originate from.
    supersample:
        Rays per pixel: 1, or 4 for the study's anti-aliasing configuration
        (jittered sub-pixel positions via a double-resolution camera).
    morton_order:
        Emit rays along a Morton curve of the framebuffer (the ray tracer's
        coherence ordering) instead of row-major pixel order.
    """

    camera: Camera
    supersample: int = 1
    morton_order: bool = False

    def __post_init__(self) -> None:
        if self.supersample not in (1, 4):
            raise ValueError("supersample must be 1 or 4")

    # -- orderings -------------------------------------------------------------
    def _morton_pixel_order(self) -> np.ndarray:
        """Pixel ids sorted along a Morton curve of the framebuffer."""
        camera = self.camera
        pixel_ids = np.arange(camera.width * camera.height, dtype=np.int64)
        px = (pixel_ids % camera.width).astype(np.uint32)
        py = (pixel_ids // camera.width).astype(np.uint32)
        codes = morton_encode_2d(px, py)
        return pixel_ids[np.argsort(codes, kind="stable")]

    # -- emission --------------------------------------------------------------
    def emit(self, pixel_ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Primary rays; returns ``(pixel_ids, origins, directions)``.

        ``pixel_ids`` restricts emission to specific (row-major) pixels and
        overrides the Morton ordering; with 4x super-sampling each pixel id
        appears four times with jittered sub-pixel positions.
        """
        camera = self.camera
        if self.supersample == 1:
            if pixel_ids is None:
                if self.morton_order:
                    pixel_ids = self._morton_pixel_order()
                else:
                    pixel_ids = np.arange(camera.width * camera.height, dtype=np.int64)
            else:
                pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
            origins, directions = camera.generate_rays(pixel_ids)
            return pixel_ids, origins, directions
        if pixel_ids is not None:
            raise ValueError("explicit pixel_ids are not supported with super-sampling")
        # Four-ray super-sampling: jitter by generating rays on a double-res
        # camera and mapping each fine pixel back to its coarse parent.
        fine = Camera(
            position=camera.position,
            look_at=camera.look_at,
            up=camera.up,
            fov_y_degrees=camera.fov_y_degrees,
            width=camera.width * 2,
            height=camera.height * 2,
            near=camera.near,
            far=camera.far,
        )
        fine_ids = np.arange(fine.width * fine.height, dtype=np.int64)
        fx = fine_ids % fine.width
        fy = fine_ids // fine.width
        parent = (fy // 2) * camera.width + (fx // 2)
        if self.morton_order:
            order = np.argsort(
                morton_encode_2d((fx // 2).astype(np.uint32), (fy // 2).astype(np.uint32)),
                kind="stable",
            )
        else:
            order = np.argsort(parent, kind="stable")
        origins, directions = fine.generate_rays(fine_ids[order])
        return parent[order], origins, directions

    def emit_clipped(
        self, bounds: AABB
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rays whose parametric interval overlaps ``bounds``.

        Returns ``(pixel_ids, origins, directions, t_near, t_far)`` restricted
        to rays with a non-degenerate span: ``t_near`` is clamped at 0 (rays
        starting inside the box enter immediately) and only rays with
        ``t_far > t_near`` are kept.  This is the shared "ray setup" phase of
        the volume ray casters.
        """
        pixel_ids, origins, directions = self.emit()
        t_near, t_far = _clamped_spans(origins, directions, bounds)
        kept = np.flatnonzero(t_far > t_near)
        return pixel_ids[kept], origins[kept], directions[kept], t_near[kept], t_far[kept]


def _clamped_spans(
    origins: np.ndarray, directions: np.ndarray, bounds: AABB
) -> tuple[np.ndarray, np.ndarray]:
    """``(t_near, t_far)`` against ``bounds`` with ``t_near`` clamped at the ray origin."""
    t_near, t_far = ray_box_intervals(origins, directions, bounds.low, bounds.high)
    return np.maximum(t_near, 0.0), t_far


def pixels_reaching(camera: Camera, boxes: Sequence[AABB]) -> list[int]:
    """Per box, how many pixel-center rays of ``camera`` reach it.

    An upper bound on the ``active_pixels`` any renderer can report for
    geometry inside the box: a pixel is lit only where its center ray meets
    the geometry, hence the box.  The test is :meth:`RayEmitter.emit_clipped`'s
    on the box grown by :data:`REACH_MARGIN`, and growing a box only widens
    every ray's span, so the bound is never below the structured caster's
    count and absorbs the other renderers' rounding on the silhouette.  Rays
    are generated once for all boxes.
    """
    origins, directions = camera.generate_rays()
    counts = []
    for box in boxes:
        t_near, t_far = _clamped_spans(
            origins, directions, box.expanded(REACH_MARGIN * box.diagonal)
        )
        counts.append(int(np.count_nonzero(t_far > t_near)))
    return counts


@dataclass
class CameraPath:
    """A time-varying camera orbit: one :class:`Camera` (or emitter) per frame.

    The scale-study scenarios render a fly-around rather than a fixed view,
    so the per-rank active-pixel footprint shifts frame to frame (the camera
    sweeps across the decomposition).  The path orbits ``look_at`` in the
    plane orthogonal to ``up`` while bobbing along ``up``; frame ``t`` of
    ``num_frames`` sits at angle ``2*pi*t/num_frames`` plus the phase.

    Attributes
    ----------
    template:
        Camera carrying the shared intrinsics (fov, resolution, clip planes)
        plus the orbit center (``look_at``) and radius (distance from
        ``position`` to ``look_at``).
    num_frames:
        Frames in one full orbit.
    elevation:
        Amplitude of the ``up``-axis bob, as a fraction of the orbit radius.
    phase:
        Starting angle in radians.
    """

    template: Camera
    num_frames: int = 60
    elevation: float = 0.2
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.num_frames < 1:
            raise ValueError("num_frames must be positive")

    def camera_at(self, frame: int) -> Camera:
        """The orbit camera for ``frame`` (wraps modulo ``num_frames``)."""
        template = self.template
        offset = template.position - template.look_at
        radius = float(np.linalg.norm(offset))
        if radius == 0.0:
            raise ValueError("template camera must not sit on its look_at point")
        up = template.up / np.linalg.norm(template.up)
        # Orbit basis: the template's offset projected off `up`, plus the
        # orthogonal in-plane direction.
        planar = offset - offset.dot(up) * up
        if np.linalg.norm(planar) < 1e-12:
            planar = np.array([1.0, 0.0, 0.0]) - up[0] * up
        axis_a = planar / np.linalg.norm(planar)
        axis_b = np.cross(up, axis_a)
        angle = self.phase + 2.0 * np.pi * (frame % self.num_frames) / self.num_frames
        position = template.look_at + radius * (
            np.cos(angle) * axis_a + np.sin(angle) * axis_b
        ) + self.elevation * radius * np.sin(angle) * up
        return Camera(
            position=position,
            look_at=template.look_at,
            up=template.up,
            fov_y_degrees=template.fov_y_degrees,
            width=template.width,
            height=template.height,
            near=template.near,
            far=template.far,
        )

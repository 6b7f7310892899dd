"""The shared ray emitter: one camera-ray front-end for every image-order renderer.

Before the frontier refactor each image-order renderer carried its own ray
setup -- the ray tracer's Morton-ordered (optionally super-sampled) generator,
and private ray/bounds interval clips in the structured volume caster and the
connectivity ray-caster baseline (one of which lost the sign of tiny negative
direction components).  :class:`RayEmitter` centralizes all of it on top of
:meth:`repro.geometry.transforms.Camera.generate_rays` and the shared slab
test :func:`repro.geometry.aabb.ray_box_intervals`.  Which pixels get a ray is
decided in one place, :func:`screen_footprint`: the pixels whose center rays
can reach the bounds of what is rendered, so a block that covers a fraction
of the screen pays for that fraction; it and the object-order renderers'
boxes are :func:`pixel_boxes`, with row 0 at the top of the image.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from repro.geometry.aabb import AABB, ray_box_intervals
from repro.geometry.transforms import Camera
from repro.util.morton import morton_encode_2d

__all__ = ["CameraPath", "RayEmitter", "pixel_boxes", "pixels_reaching", "screen_footprint"]

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

    def emit(self, bounds: AABB | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Primary rays ``(pixel_ids, origins, directions)`` for the pixels of :func:`screen_footprint`.

        Only pixels whose center ray can reach ``bounds`` (the whole screen
        without it) are emitted: each pixel's ray is the one a full-screen
        emission gives it, and the order is the full-screen order with the
        other pixels left out.  With 4x super-sampling each pixel id appears
        four times in a row, one ray per pixel of the 2x2 block under it on a
        double-resolution camera; those rays pass a quarter pixel from the
        center, well inside the footprint's one pixel of padding.
        """
        camera = self.camera
        pixel_ids = screen_footprint(camera, bounds)
        if self.morton_order:
            codes = morton_encode_2d(
                (pixel_ids % camera.width).astype(np.uint32),
                (pixel_ids // camera.width).astype(np.uint32),
            )
            pixel_ids = pixel_ids[np.argsort(codes, kind="stable")]
        if self.supersample == 1:
            origins, directions = camera.generate_rays(pixel_ids)
            return pixel_ids, origins, directions
        fine = replace(camera, width=camera.width * 2, height=camera.height * 2)
        corner = 2 * (pixel_ids // camera.width) * fine.width + 2 * (pixel_ids % camera.width)
        fine_ids = (corner[:, None] + np.array([0, 1, fine.width, fine.width + 1])).ravel()
        origins, directions = fine.generate_rays(fine_ids)
        return np.repeat(pixel_ids, 4), origins, directions

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
        pixel_ids, origins, directions = self.emit(bounds)
        t_near, t_far = _clamped_spans(origins, directions, bounds)
        kept = np.flatnonzero(t_far > t_near)
        return pixel_ids[kept], origins[kept], directions[kept], t_near[kept], t_far[kept]


def _clamped_spans(
    origins: np.ndarray, directions: np.ndarray, bounds: AABB
) -> tuple[np.ndarray, np.ndarray]:
    """``(t_near, t_far)`` against ``bounds`` with ``t_near`` clamped at the ray origin."""
    t_near, t_far = ray_box_intervals(origins, directions, bounds.low, bounds.high)
    return np.maximum(t_near, 0.0), t_far


def pixel_boxes(xy: np.ndarray, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``: the pixels ``lo <= (px, py) < hi`` each of ``n`` sets of screen points touches.

    ``xy`` is ``(n, k, 2)`` :meth:`Camera.world_to_screen` positions; a box runs from the floor of
    the set's minimum to the ceiling of its maximum, clamped to the screen before the integer cast
    (so it is empty off screen, and a huge, infinite or NaN position lands on an edge or 0).  A
    caller that needs at least one pixel per box applies that minimum itself.
    """
    limit = np.array([width, height])
    lo = np.fmin(np.fmax(np.floor(xy.min(axis=1)), 0), limit).astype(np.int64)
    hi = np.fmin(np.fmax(np.ceil(xy.max(axis=1)), 0), limit).astype(np.int64)
    return lo, hi


def screen_footprint(camera: Camera, bounds: AABB | None) -> np.ndarray:
    """Row-major ids of the pixel rectangle holding every pixel whose center ray can reach ``bounds``.

    The box's eight corners go through :meth:`Camera.world_to_screen`, and
    the rectangle is :func:`pixel_boxes` of the corners grown by half a
    pixel each way: every pixel whose center lies within one pixel of the
    corners' rectangle.  A center ray meets the box at a point that projects
    onto its pixel center, and a box wholly in front of the camera projects
    inside its corners' rectangle, so every such pixel lies in that
    rectangle; the pixel of padding absorbs the rounding of the projection
    and of the ray setup, which is many orders below a pixel.  The result
    may be empty.  The whole screen is returned for ``bounds=None`` and
    whenever a corner is at or behind the camera plane or does not project
    to a finite position.
    """
    width, height = camera.width, camera.height
    (x0, y0), (x1, y1) = (0, 0), (width, height)
    if bounds is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            screen, w = camera.world_to_screen(np.array(list(product(*zip(bounds.low, bounds.high)))))
        corners = screen[:, :2]
        if np.all(w > 0.0) and np.all(np.isfinite(corners)):
            lo, hi = pixel_boxes(np.concatenate([corners - 0.5, corners + 0.5])[None], width, height)
            (x0, y0), (x1, y1) = lo[0], hi[0]
    row_ids = np.arange(y0, y1, dtype=np.int64)[:, None] * width
    return (row_ids + np.arange(x0, x1, dtype=np.int64)[None, :]).ravel()


def pixels_reaching(camera: Camera, boxes: Sequence[AABB]) -> list[int]:
    """Per box, how many pixel-center rays of ``camera`` reach it.

    An upper bound on the ``active_pixels`` any renderer can report for
    geometry inside the box: a pixel is lit only where its center ray meets
    the geometry, hence the box.  The test is :meth:`RayEmitter.emit_clipped`'s
    on the box grown by :data:`REACH_MARGIN`, and growing a box only widens
    every ray's span, so the bound is never below the structured caster's
    count and absorbs the other renderers' rounding on the silhouette.  Each
    box pays only for the rays of its own :func:`screen_footprint`.
    """
    emitter = RayEmitter(camera)
    counts = []
    for box in boxes:
        grown = box.expanded(REACH_MARGIN * box.diagonal)
        _, origins, directions = emitter.emit(grown)
        t_near, t_far = _clamped_spans(origins, directions, grown)
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

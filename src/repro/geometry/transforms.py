"""Camera and screen-space transforms.

Both object-order (rasterization, projected tetrahedra) and image-order
(ray tracing, volume ray casting) algorithms need the same two transforms:

* a **look-at / view** matrix taking world coordinates into camera space, and
* a **perspective projection** plus **viewport** transform taking camera space
  into pixel coordinates with a depth value.

The pinhole :class:`Camera` bundles those, produces primary ray origins and
directions for the image-order renderers, and transforms geometry into screen
space for the object-order renderers -- the "Screen Space Transformation"
phase of the Chapter III volume-rendering algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.aabb import AABB

__all__ = [
    "look_at_matrix",
    "perspective_matrix",
    "project_points",
    "Camera",
]


def _normalize(vector: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vector)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return vector / norm


def look_at_matrix(position: np.ndarray, look_at: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Right-handed world-to-camera (view) matrix, 4x4 homogeneous."""
    position = np.asarray(position, dtype=np.float64)
    look_at = np.asarray(look_at, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    forward = _normalize(look_at - position)          # camera -z
    right = _normalize(np.cross(forward, up))
    true_up = np.cross(right, forward)
    view = np.eye(4)
    view[0, :3] = right
    view[1, :3] = true_up
    view[2, :3] = -forward
    view[:3, 3] = -view[:3, :3] @ position
    return view


def perspective_matrix(fov_y_degrees: float, aspect: float, near: float, far: float) -> np.ndarray:
    """OpenGL-style perspective projection matrix."""
    if near <= 0 or far <= near:
        raise ValueError("require 0 < near < far")
    if not 0 < fov_y_degrees < 180:
        raise ValueError("field of view must be in (0, 180) degrees")
    f = 1.0 / np.tan(np.radians(fov_y_degrees) / 2.0)
    proj = np.zeros((4, 4))
    proj[0, 0] = f / aspect
    proj[1, 1] = f
    proj[2, 2] = (far + near) / (near - far)
    proj[2, 3] = 2.0 * far * near / (near - far)
    proj[3, 2] = -1.0
    return proj


def project_points(points: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply a 4x4 homogeneous matrix to ``(n, 3)`` points.

    Returns ``(projected, w)`` where ``projected`` is the ``(n, 3)`` result of
    the perspective divide and ``w`` the clip-space w (positive in front of
    the camera for a standard projection chain).
    """
    points = np.asarray(points, dtype=np.float64)
    homogeneous = np.concatenate([points, np.ones((len(points), 1))], axis=1)
    clip = homogeneous @ matrix.T
    w = clip[:, 3]
    safe_w = np.where(np.abs(w) < 1e-300, np.copysign(1e-300, np.where(w == 0.0, 1.0, w)), w)
    return clip[:, :3] / safe_w[:, None], w


@dataclass
class Camera:
    """Pinhole camera.

    Parameters
    ----------
    position, look_at, up:
        Standard look-at specification.
    fov_y_degrees:
        Vertical field of view.
    width, height:
        Image resolution in pixels.
    near, far:
        Clip plane distances for the projection matrix.
    """

    position: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 5.0]))
    look_at: np.ndarray = field(default_factory=lambda: np.zeros(3))
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    fov_y_degrees: float = 45.0
    width: int = 256
    height: int = 256
    near: float = 0.01
    far: float = 1000.0

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64)
        self.look_at = np.asarray(self.look_at, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")

    # -- matrices -------------------------------------------------------------
    @property
    def aspect(self) -> float:
        return self.width / self.height

    def view_matrix(self) -> np.ndarray:
        return look_at_matrix(self.position, self.look_at, self.up)

    def projection_matrix(self) -> np.ndarray:
        return perspective_matrix(self.fov_y_degrees, self.aspect, self.near, self.far)

    def view_projection_matrix(self) -> np.ndarray:
        return self.projection_matrix() @ self.view_matrix()

    # -- image-order: primary rays ----------------------------------------------
    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Camera basis vectors ``(right, up, forward)`` in world space."""
        forward = _normalize(self.look_at - self.position)
        right = _normalize(np.cross(forward, self.up))
        true_up = np.cross(right, forward)
        return right, true_up, forward

    def generate_rays(self, pixel_ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Primary ray origins and directions for the given pixel ids.

        Pixel ids index the framebuffer row-major (``py * width + px``); when
        omitted, rays are generated for every pixel.  Rays pass through pixel
        centers.  Returns ``(origins, directions)`` with directions normalized.
        Row 0 is the top of the image, as in :meth:`world_to_screen`.
        """
        if pixel_ids is None:
            pixel_ids = np.arange(self.width * self.height, dtype=np.int64)
        pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
        px = (pixel_ids % self.width).astype(np.float64) + 0.5
        py = (pixel_ids // self.width).astype(np.float64) + 0.5

        right, true_up, forward = self.basis()
        tan_half = np.tan(np.radians(self.fov_y_degrees) / 2.0)
        # NDC in [-1, 1] with y up.
        ndc_x = (2.0 * px / self.width - 1.0) * tan_half * self.aspect
        ndc_y = (1.0 - 2.0 * py / self.height) * tan_half
        # Column-wise: the same products and sums, in the same order, as
        # ``np.linalg.norm`` over the length-3 axis, without its strided reduce.
        dx, dy, dz = (forward[axis] + ndc_x * right[axis] + ndc_y * true_up[axis] for axis in range(3))
        norm = np.sqrt(dx * dx + dy * dy + dz * dz)
        directions = np.column_stack([dx / norm, dy / norm, dz / norm])
        origins = np.broadcast_to(self.position, directions.shape).copy()
        return origins, directions

    # -- object-order: screen-space projection -----------------------------------
    def world_to_screen(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project world points to ``(px, py, depth01)`` screen coordinates.

        Returns ``(screen, w)``; callers use ``w > 0`` to cull points behind
        the camera.  ``depth01`` is the NDC z remapped to ``[0, 1]`` (0 = near
        plane).  Row 0 is the top of the image, as in :meth:`generate_rays`:
        ``py`` is ``height`` minus the OpenGL viewport's bottom-up row, an
        exact mirror, so a box's floor/ceil pixel edges mirror exactly too.
        """
        ndc, w = project_points(points, self.view_projection_matrix())
        screen = np.empty_like(ndc)
        screen[:, 0] = (ndc[:, 0] + 1.0) * 0.5 * self.width
        screen[:, 1] = self.height - (ndc[:, 1] + 1.0) * 0.5 * self.height
        screen[:, 2] = (ndc[:, 2] + 1.0) * 0.5
        return screen, w

    def depth_along_view(self, points: np.ndarray) -> np.ndarray:
        """Distance of points along the view direction (camera-space -z)."""
        points = np.asarray(points, dtype=np.float64)
        _, _, forward = self.basis()
        return (points - self.position) @ forward

    def visibility_distance(self, bounds: AABB) -> float:
        """Distance from the camera to a bounding box center.

        The one visibility-ordering formula behind every renderer's
        ``visibility_depth``: sort-last OVER compositing orders sub-images
        by this value.
        """
        return float(np.linalg.norm(bounds.center - self.position))

    # -- convenience constructors -------------------------------------------------
    @classmethod
    def framing_bounds(
        cls,
        bounds: AABB,
        width: int,
        height: int,
        *,
        azimuth_degrees: float = 30.0,
        elevation_degrees: float = 20.0,
        zoom: float = 1.0,
        fov_y_degrees: float = 45.0,
    ) -> "Camera":
        """Camera orbiting a bounding box so that it (roughly) fills the view.

        ``zoom`` > 1 moves the camera closer ("close" views in the study);
        ``zoom`` < 1 moves it away ("far"/zoomed-out views).
        """
        center = bounds.center
        radius = max(bounds.diagonal / 2.0, 1e-12)
        distance = radius / np.tan(np.radians(fov_y_degrees) / 2.0) / max(zoom, 1e-6)
        azimuth = np.radians(azimuth_degrees)
        elevation = np.radians(elevation_degrees)
        offset = np.array(
            [
                np.cos(elevation) * np.sin(azimuth),
                np.sin(elevation),
                np.cos(elevation) * np.cos(azimuth),
            ]
        )
        position = center + distance * offset
        near = max(distance - 2.5 * radius, distance * 1e-3)
        far = distance + 2.5 * radius
        return cls(
            position=position,
            look_at=center,
            up=np.array([0.0, 1.0, 0.0]),
            fov_y_degrees=fov_y_degrees,
            width=width,
            height=height,
            near=near,
            far=far,
        )

"""Axis-aligned bounding boxes (AABBs) and the shared ray/box slab test.

AABBs appear throughout the rendering stack: every BVH node stores one, the
rasterizer bounds each triangle's pixel footprint with one, and the
unstructured volume renderer bounds each tetrahedron's sample footprint with
one (Chapter III, "Sampling" phase).

This module also owns the *one* ray-box interval implementation
(:func:`ray_box_intervals` on top of :func:`safe_reciprocal`) used by every
image-order renderer -- BVH traversal, the structured volume ray caster, and
the connectivity ray-caster baseline previously each carried a private copy,
and the volume copies mapped tiny *negative* direction components to a
*positive* huge reciprocal, corrupting entry/exit intervals for grazing rays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AABB",
    "aabb_union",
    "triangle_aabbs",
    "points_aabb",
    "safe_reciprocal",
    "ray_box_intervals",
]


@dataclass(frozen=True)
class AABB:
    """An axis-aligned box described by its low and high corners."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        low = np.asarray(self.low, dtype=np.float64)
        high = np.asarray(self.high, dtype=np.float64)
        if low.shape != (3,) or high.shape != (3,):
            raise ValueError("AABB corners must be 3-vectors")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def extent(self) -> np.ndarray:
        """Per-axis lengths (may contain zeros for degenerate boxes)."""
        return self.high - self.low

    @property
    def center(self) -> np.ndarray:
        """Geometric center of the box."""
        return 0.5 * (self.low + self.high)

    @property
    def surface_area(self) -> float:
        """Surface area, used by the SAH BVH builder."""
        dx, dy, dz = np.maximum(self.extent, 0.0)
        return float(2.0 * (dx * dy + dy * dz + dz * dx))

    @property
    def diagonal(self) -> float:
        """Length of the box diagonal."""
        return float(np.linalg.norm(np.maximum(self.extent, 0.0)))

    def is_valid(self) -> bool:
        """True when low <= high on every axis."""
        return bool(np.all(self.low <= self.high))

    def contains_points(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Boolean mask of points inside the (tolerance-expanded) box."""
        points = np.asarray(points, dtype=np.float64)
        return np.all((points >= self.low - tol) & (points <= self.high + tol), axis=-1)

    def union(self, other: "AABB") -> "AABB":
        """Smallest box containing both boxes."""
        return AABB(np.minimum(self.low, other.low), np.maximum(self.high, other.high))

    def expanded(self, margin: float) -> "AABB":
        """Box grown by ``margin`` on every side."""
        return AABB(self.low - margin, self.high + margin)


def aabb_union(boxes: list[AABB]) -> AABB:
    """Union of a non-empty list of boxes."""
    if not boxes:
        raise ValueError("aabb_union requires at least one box")
    lows = np.stack([box.low for box in boxes])
    highs = np.stack([box.high for box in boxes])
    return AABB(lows.min(axis=0), highs.max(axis=0))


def points_aabb(points: np.ndarray) -> AABB:
    """Bounding box of a non-empty point cloud of shape ``(n, 3)``."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, 3) array")
    return AABB(points.min(axis=0), points.max(axis=0))


def safe_reciprocal(directions: np.ndarray) -> np.ndarray:
    """Sign-preserving reciprocal with zeros replaced by a huge finite value.

    Tiny components keep their sign (``-1e-301`` maps to a huge *negative*
    reciprocal), so slab tests order their entry/exit planes correctly for
    grazing rays; exact zeros (including ``-0.0``) map to the positive huge
    value, which the min/max folds of the slab test treat correctly because
    the corresponding plane distances become ``+/-inf`` of matching sign.
    """
    directions = np.asarray(directions)
    tiny = 1e-300
    small = np.abs(directions) < tiny
    safe = np.where(
        small,
        np.copysign(tiny, np.where(directions == 0.0, 1.0, directions)),
        directions,
    )
    return 1.0 / safe


def ray_box_intervals(
    origins: np.ndarray,
    directions: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Unclamped slab-test entry/exit parameters of rays against one box.

    ``origins``/``directions`` are ``(n, 3)``; ``low``/``high`` are the box
    corners (3-vectors or broadcastable against the rays).  Returns
    ``(t_near, t_far)``; a ray's parametric interval overlaps the box iff
    ``t_near <= t_far`` (callers clamp ``t_near`` at 0 for rays starting
    inside and require ``t_far > t_near`` for a non-degenerate span).
    """
    origins = np.asarray(origins, dtype=np.float64)
    inv = safe_reciprocal(np.asarray(directions, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = (np.asarray(low) - origins) * inv
        t1 = (np.asarray(high) - origins) * inv
        entry = np.minimum(t0, t1)
        exit_ = np.maximum(t0, t1)
        # The 3-axis fold written out: the reduce's own order, without its
        # per-row overhead on a length-3 axis.
        t_near = np.maximum(np.maximum(entry[..., 0], entry[..., 1]), entry[..., 2])
        t_far = np.minimum(np.minimum(exit_[..., 0], exit_[..., 1]), exit_[..., 2])
    return t_near, t_far


def triangle_aabbs(vertices: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle bounding boxes.

    Parameters
    ----------
    vertices:
        ``(nv, 3)`` vertex coordinates.
    triangles:
        ``(nt, 3)`` vertex indices.

    Returns
    -------
    (lows, highs):
        Two ``(nt, 3)`` arrays holding each triangle's box corners.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    corners = vertices[triangles]  # (nt, 3, 3)
    return corners.min(axis=1), corners.max(axis=1)

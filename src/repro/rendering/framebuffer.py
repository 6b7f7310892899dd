"""Framebuffers: RGBA color plus depth, with compositing-friendly accessors.

Every local render produces a :class:`Framebuffer`; in a distributed setting
(Chapter V) each MPI task's framebuffer becomes a sub-image handed to the
compositor together with per-pixel depth (surface renderers) or a visibility
order (volume renderers).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Framebuffer"]


class Framebuffer:
    """A ``height x width`` RGBA + depth image.

    Color is stored as float64 in [0, 1] with straight (non-premultiplied)
    alpha; depth is the normalized hit distance with ``inf`` marking
    background pixels.
    """

    def __init__(self, width: int, height: int, background: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 0.0)) -> None:
        if width < 1 or height < 1:
            raise ValueError("framebuffer dimensions must be positive")
        self.width = int(width)
        self.height = int(height)
        self.background = np.asarray(background, dtype=np.float64)
        self.rgba = np.empty((self.height, self.width, 4), dtype=np.float64)
        self.depth = np.empty((self.height, self.width), dtype=np.float64)
        self.clear()

    # -- basic operations -----------------------------------------------------
    def clear(self) -> None:
        """Reset color to the background and depth to infinity."""
        self.rgba[...] = self.background
        self.depth[...] = np.inf

    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    def active_pixels(self) -> int:
        """Number of pixels written by rendering (finite depth or alpha > 0)."""
        return int(np.count_nonzero(np.isfinite(self.depth) | (self.rgba[..., 3] > 0.0)))

    # -- flat pixel-id addressing (row-major, y * width + x) ----------------------
    def write_pixels(self, pixel_ids: np.ndarray, rgba: np.ndarray, depth: np.ndarray | None = None) -> None:
        """Write colors (and optionally depth) at flat pixel indices."""
        pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
        flat_rgba = self.rgba.reshape(-1, 4)
        flat_rgba[pixel_ids] = rgba
        if depth is not None:
            self.depth.reshape(-1)[pixel_ids] = depth

    # -- compositing helpers ---------------------------------------------------------
    def depth_composite(self, other: "Framebuffer") -> "Framebuffer":
        """Per-pixel nearest-depth selection (z-buffer compositing)."""
        if (self.width, self.height) != (other.width, other.height):
            raise ValueError("framebuffer dimensions must match for compositing")
        result = Framebuffer(self.width, self.height, tuple(self.background))
        take_self = self.depth <= other.depth
        result.rgba = np.where(take_self[..., None], self.rgba, other.rgba)
        result.depth = np.where(take_self, self.depth, other.depth)
        return result

    # -- export ---------------------------------------------------------------------
    def to_rgb8(self) -> np.ndarray:
        """8-bit RGB image with the alpha channel composited over the background color."""
        alpha = self.rgba[..., 3:4]
        rgb = self.rgba[..., :3] * alpha + self.background[:3] * (1.0 - alpha)
        return np.clip(rgb * 255.0 + 0.5, 0, 255).astype(np.uint8)

    def copy(self) -> "Framebuffer":
        """Deep copy."""
        duplicate = Framebuffer(self.width, self.height, tuple(self.background))
        duplicate.rgba = self.rgba.copy()
        duplicate.depth = self.depth.copy()
        return duplicate

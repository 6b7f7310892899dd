"""Object-order rasterizer (the third Chapter V rendering technique)."""

from repro.rendering.rasterizer.raster import Rasterizer

__all__ = ["Rasterizer"]

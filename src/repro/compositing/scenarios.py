"""Per-rank scene factories for thousand-rank streaming composites.

The cohort driver in :mod:`repro.compositing.algorithms` never holds the
whole rank population; it pulls each rank's :class:`RunImage` from a factory
callable on demand.  This module provides the study's synthetic scene
factories.  All of them are *deterministic per rank* -- calling
``factory(rank)`` twice yields byte-identical images -- which is what the
cohort-size-invariance oracle relies on (two runs with different
``max_live_ranks`` regenerate the same inputs).

Three scenario families widen the scale-study matrix:

* ``uniform`` -- every rank covers the same fraction of the image at random
  positions; the classic equal-block decomposition all prior PRs assumed.
* ``amr`` -- coverage per rank drawn from the
  :class:`~repro.simulations.amr.AmrProxy` refinement-level model: most
  ranks are coarse and sparse, a refined minority is dense, so per-rank
  wire bytes and merge load become strongly nonuniform.
* ``camera-orbit`` -- ranks hold blocks of a 3D lattice viewed through one
  frame of a :class:`~repro.rendering.rays.CameraPath` orbit; each rank's
  footprint is the screen-space projection of its block, so the active-pixel
  distribution shifts as the camera flies around the decomposition.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.compositing.runimage import RunImage
from repro.geometry.transforms import Camera
from repro.rendering.rays import CameraPath
from repro.simulations.amr import AmrProxy
from repro.util.rng import default_rng

__all__ = [
    "SCENARIOS",
    "amr_scene",
    "camera_orbit_scene",
    "get_scenario",
    "random_rgba",
    "scene_factory",
    "synthetic_run_image",
    "uniform_scene",
]


def random_rgba(rng: np.random.Generator, count: int, alpha: float) -> np.ndarray:
    """``count`` random colors with a constant ``alpha``, as one ``(count, 4)`` array."""
    rgba = np.empty((count, 4))
    rgba[:, :3] = rng.random((count, 3))
    rgba[:, 3] = alpha
    return rgba


def synthetic_run_image(
    rank: int,
    width: int,
    height: int,
    mode: str,
    coverage: float,
    rng: np.random.Generator,
) -> RunImage:
    """One rank's synthetic sub-image: ``coverage`` of the pixels, random runs.

    Active pixels are drawn without replacement (so runs form naturally from
    the density), colors are random, alpha is 1 in depth mode and 0.6 in
    over mode, and depth is uniform on ``[rank, rank + 1)`` so the per-rank
    depth bands overlap neighboring ranks without being degenerate.
    """
    num_pixels = width * height
    count = min(max(round(coverage * num_pixels), 0), num_pixels)
    if count == 0:
        return RunImage.from_arrays(
            np.empty(0, dtype=np.int64), np.empty((0, 4)), np.empty(0), width, height, key=rank
        )
    pixels = np.sort(rng.choice(num_pixels, size=count, replace=False)).astype(np.int64)
    rgba = random_rgba(rng, count, 1.0 if mode == "depth" else 0.6)
    depth = rank + rng.random(count)
    return RunImage.from_arrays(pixels, rgba, depth, width, height, key=rank)


def uniform_scene(
    size: int,
    width: int,
    height: int,
    mode: str = "depth",
    seed: int = 2016,
    coverage: float = 0.08,
) -> Callable[[int], RunImage]:
    """Equal-coverage factory: every rank fills ``coverage`` of the image."""

    def factory(rank: int) -> RunImage:
        rng = default_rng(seed, "scale-scene", "uniform", size, rank)
        return synthetic_run_image(rank, width, height, mode, coverage, rng)

    return factory


def amr_scene(
    size: int,
    width: int,
    height: int,
    mode: str = "depth",
    seed: int = 2016,
    base_coverage: float = 0.02,
    max_level: int = 3,
) -> Callable[[int], RunImage]:
    """Nonuniform factory: per-rank coverage from the AMR refinement model."""
    proxy = AmrProxy(8, max_level=max_level, seed=seed)
    coverage = proxy.rank_coverage(size, base_coverage=base_coverage)

    def factory(rank: int) -> RunImage:
        rng = default_rng(seed, "scale-scene", "amr", size, rank)
        return synthetic_run_image(rank, width, height, mode, float(coverage[rank]), rng)

    return factory


def _lattice_centers(size: int) -> np.ndarray:
    """Rank block centers on the smallest cubic lattice holding ``size`` blocks."""
    per_axis = 1
    while per_axis**3 < size:
        per_axis += 1
    ranks = np.arange(size)
    i = ranks % per_axis
    j = (ranks // per_axis) % per_axis
    k = ranks // (per_axis * per_axis)
    return (np.column_stack([i, j, k]) + 0.5) / per_axis


def camera_orbit_scene(
    size: int,
    width: int,
    height: int,
    mode: str = "depth",
    seed: int = 2016,
    frame: int = 0,
    num_frames: int = 60,
    coverage: float = 0.05,
) -> Callable[[int], RunImage]:
    """Time-varying factory: rank footprints projected through an orbit frame.

    Each rank owns one block of a cubic lattice over ``[0, 1]^3``; its active
    pixels form a disc around the block center's screen-space projection at
    ``frame`` of a :class:`CameraPath` orbit, and its fragments sit at the
    camera-space distance of the block.  Blocks behind the camera or outside
    the frustum contribute empty images -- exactly the skew a fly-around
    induces on a real decomposition.
    """
    template = Camera(
        position=np.array([0.5, 0.5, 2.2]),
        look_at=np.array([0.5, 0.5, 0.5]),
        width=width,
        height=height,
    )
    camera = CameraPath(template, num_frames=num_frames).camera_at(frame)
    centers = _lattice_centers(size)
    clip = np.concatenate([centers, np.ones((size, 1))], axis=1)
    clip = clip @ (camera.projection_matrix() @ camera.view_matrix()).T
    in_front = clip[:, 3] > 1e-9
    ndc = np.where(in_front[:, None], clip[:, :3] / np.maximum(clip[:, 3:4], 1e-9), 2.0)
    screen_x = (ndc[:, 0] + 1.0) * 0.5 * width
    screen_y = (1.0 - ndc[:, 1]) * 0.5 * height
    distance = np.linalg.norm(centers - camera.position, axis=1)
    # Footprint radius: coverage at the orbit radius, shrinking with distance.
    orbit_radius = float(np.linalg.norm(template.position - template.look_at))
    base_radius = np.sqrt(coverage * width * height / np.pi)
    radius = base_radius * orbit_radius / np.maximum(distance, 1e-9)

    def factory(rank: int) -> RunImage:
        if not in_front[rank]:
            return RunImage.from_arrays(
                np.empty(0, dtype=np.int64), np.empty((0, 4)), np.empty(0),
                width, height, key=rank,
            )
        rng = default_rng(seed, "scale-scene", "camera-orbit", size, frame, rank)
        cx, cy, r = screen_x[rank], screen_y[rank], radius[rank]
        x_low = max(int(np.floor(cx - r)), 0)
        x_high = min(int(np.ceil(cx + r)) + 1, width)
        y_low = max(int(np.floor(cy - r)), 0)
        y_high = min(int(np.ceil(cy + r)) + 1, height)
        if x_low >= x_high or y_low >= y_high:
            return RunImage.from_arrays(
                np.empty(0, dtype=np.int64), np.empty((0, 4)), np.empty(0),
                width, height, key=rank,
            )
        xs = np.arange(x_low, x_high)
        ys = np.arange(y_low, y_high)
        inside = ((xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2) <= r * r
        pixels = (ys[:, None] * width + xs[None, :])[inside].astype(np.int64)
        count = len(pixels)
        if count == 0:
            return RunImage.from_arrays(
                np.empty(0, dtype=np.int64), np.empty((0, 4)), np.empty(0),
                width, height, key=rank,
            )
        rgba = random_rgba(rng, count, 1.0 if mode == "depth" else 0.6)
        depth = distance[rank] + 0.01 * rng.random(count)
        return RunImage.from_arrays(pixels, rgba, depth, width, height, key=rank)

    return factory


#: Scenario registry: name -> factory builder with the uniform signature
#: ``(size, width, height, mode, seed)``.
SCENARIOS: dict[str, Callable[..., Callable[[int], RunImage]]] = {
    "uniform": uniform_scene,
    "amr": amr_scene,
    "camera-orbit": camera_orbit_scene,
}


def get_scenario(name: str) -> Callable[..., Callable[[int], RunImage]]:
    """The factory builder of a scenario name; the one place an unknown name is rejected."""
    try:
        return SCENARIOS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        choices = ", ".join(SCENARIOS)
        raise ValueError(f"unknown compositing scenario {name!r}; choose from {choices}") from None


def scene_factory(
    name: str, size: int, width: int, height: int, mode: str = "depth", seed: int = 2016, **kwargs
) -> Callable[[int], RunImage]:
    """Build a per-rank factory for a named scenario."""
    return get_scenario(name)(size, width, height, mode=mode, seed=seed, **kwargs)

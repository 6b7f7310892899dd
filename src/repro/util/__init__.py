"""Shared utilities for the in situ rendering performance-modeling reproduction.

This package holds small building blocks used throughout :mod:`repro`:

* :mod:`repro.util.morton` -- Z-order (Morton) curve encoding used to order
  camera rays and to build the linear BVH (LBVH).
* :mod:`repro.util.timing` -- the whole-call stopwatch (render phases are timed
  by :class:`repro.rendering.result.PhaseClock`).
* :mod:`repro.util.rng` -- deterministic random-number-generator helpers so
  every experiment in the study is reproducible.
* :mod:`repro.util.files` -- :func:`atomic_write`, the one way a whole output
  file is written (temporary file, then rename).
"""

from repro.util.files import atomic_write

from repro.util.morton import (
    morton_decode_2d,
    morton_decode_3d,
    morton_encode_2d,
    morton_encode_3d,
    morton_order_points,
    part1by1,
    part1by2,
    unpart1by1,
    unpart1by2,
)
from repro.util.rng import default_rng, derive_seed, spawn_rngs
from repro.util.timing import Timer

__all__ = [
    "Timer",
    "atomic_write",
    "default_rng",
    "derive_seed",
    "morton_decode_2d",
    "morton_decode_3d",
    "morton_encode_2d",
    "morton_encode_3d",
    "morton_order_points",
    "part1by1",
    "part1by2",
    "spawn_rngs",
    "unpart1by1",
    "unpart1by2",
]

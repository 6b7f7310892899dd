"""Render results: framebuffer plus the measurements the performance models need.

Every renderer in :mod:`repro.rendering` returns a :class:`RenderResult`
containing

* the :class:`~repro.rendering.framebuffer.Framebuffer`,
* per-phase wall-clock times (the regression targets), taken by the render's
  :class:`PhaseClock`, and
* the *observed model input variables* of Section 5.3 -- Objects, Active
  Pixels, Visible Objects, Pixels Per Triangle, Samples Per Ray, Cells
  Spanned -- so the study harness can fit models against observed inputs and
  the mapping of Section 5.8 can be validated against them.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.dpp.instrument import get_instrumentation
from repro.rendering.framebuffer import Framebuffer
from repro.techniques import ObservedFeatures

__all__ = [
    "ObservedFeatures",
    "PhaseClock",
    "RenderResult",
    "PHASE_GROUPS",
    "PHASE_GROUP_ORDER",
]

#: Canonical cross-renderer phase groups, in pipeline order.
PHASE_GROUP_ORDER = ("setup", "sample", "shade", "composite")

#: The standardized phase-name schema: every phase a renderer may report,
#: mapped to its canonical group.  :class:`PhaseClock` and ``RenderResult``
#: reject unregistered names, so downstream consumers (the in situ mini-app,
#: the compositing harness, and the modeling corpus) read one schema instead
#: of ad-hoc per-renderer dictionaries; per-family names stay paper-faithful
#: (the unstructured renderer still reports Algorithm 2's phases) but roll up
#: into the same four groups everywhere.
PHASE_GROUPS = {
    # acceleration/locator builds and per-frame set-up
    "bvh_build": "setup",
    "preprocess": "setup",
    "initialization": "setup",
    "ray_setup": "setup",
    "culling": "setup",
    "pass_selection": "setup",
    "screen_space": "setup",
    "sort": "setup",
    # the per-sample / per-fragment hot loop
    "trace": "sample",
    "sampling": "sample",
    "rasterize": "sample",
    "march": "sample",
    "compaction": "sample",
    # shading-only stages (surface renderers)
    "shade_setup": "shade",
    "shade": "shade",
    "ambient_occlusion": "shade",
    "shadows": "shade",
    "reflections": "shade",
    # framebuffer accumulation / blending
    "accumulate": "composite",
    "compositing": "composite",
    "fragments": "composite",
}


def _require_registered(names: Iterable[str]) -> None:
    unknown = sorted(name for name in names if name not in PHASE_GROUPS)
    if unknown:
        raise ValueError(
            f"unregistered phase names {unknown}; the standardized schema "
            f"accepts {sorted(PHASE_GROUPS)} (extend PHASE_GROUPS to add one)"
        )


class PhaseClock:
    """The per-phase stopwatch of one render.

    ``with clock.phase("trace"):`` is everything a renderer writes for a
    phase: the block is timed into ``clock.seconds["trace"]`` (a repeated
    phase accumulates) and runs under the dpp scope ``"<family>.trace"``, so
    the phase's time and its primitive counters cannot be filed under
    different names.  A name outside :data:`PHASE_GROUPS` raises before the
    block runs.

    A phase opened inside another is charged its own time only and the outer
    phase keeps the rest, so ``sum(clock.seconds.values())`` never exceeds the
    wall-clock of the render that owns the clock.  :meth:`add` is for seconds
    that were not measured around a block of this render.
    """

    def __init__(self, family: str) -> None:
        self.family = family
        self.seconds: dict[str, float] = {}
        self._nested = 0.0  # seconds of the phases closed inside the open one

    def add(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` under ``name`` without timing anything."""
        _require_registered((name,))
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block as phase ``name`` under its dpp scope."""
        _require_registered((name,))
        outer_nested, self._nested = self._nested, 0.0
        start = time.perf_counter()
        try:
            with get_instrumentation().scope(f"{self.family}.{name}"):
                yield
        finally:
            elapsed = time.perf_counter() - start
            self.add(name, elapsed - self._nested)
            self._nested = outer_nested + elapsed


def _validate_depth_convention(framebuffer: Framebuffer) -> None:
    """Enforce the one depth convention every renderer family must follow.

    A pixel that received color (alpha > 0) carries a finite, non-negative
    depth; a miss (alpha == 0) carries ``inf``.  Renderers used to disagree
    (``np.inf`` vs ``0.0`` for misses), which silently corrupted z-buffer
    compositing across renderer families.
    """
    alpha = framebuffer.rgba[..., 3]
    depth = framebuffer.depth
    finite = np.isfinite(depth)
    covered = alpha > 0.0
    if np.any(finite & ~covered):
        raise ValueError(
            "depth convention violated: finite depth on an uncovered pixel "
            "(misses must keep depth == inf)"
        )
    if np.any(covered & ~finite):
        raise ValueError(
            "depth convention violated: covered pixel without a finite depth"
        )
    if np.any(finite & (depth < 0.0)):
        raise ValueError(
            "depth convention violated: negative depth (clamp behind-camera "
            "geometry before writing)"
        )


@dataclass
class RenderResult:
    """Output of one local render.

    Attributes
    ----------
    framebuffer:
        The rendered image.
    phase_seconds:
        Wall-clock seconds per algorithm phase (e.g. ``bvh_build``,
        ``trace``, ``shade`` for the ray tracer).
    features:
        Observed model-input variables for this render.
    technique:
        The renderer's name in :data:`repro.techniques.TECHNIQUES`.
    """

    framebuffer: Framebuffer
    phase_seconds: dict[str, float] = field(default_factory=dict)
    features: ObservedFeatures = field(default_factory=ObservedFeatures)
    technique: str = ""

    def __post_init__(self) -> None:
        _require_registered(self.phase_seconds)
        _validate_depth_convention(self.framebuffer)

    @property
    def total_seconds(self) -> float:
        """Total rendering time (sum of every phase)."""
        return float(sum(self.phase_seconds.values()))

    def grouped_seconds(self) -> dict[str, float]:
        """Phase seconds rolled up into the canonical cross-renderer groups.

        Every renderer family reports the same four keys (``setup``,
        ``sample``, ``shade``, ``composite``), so consumers can compare
        techniques without knowing per-family phase names.
        """
        groups = {group: 0.0 for group in PHASE_GROUP_ORDER}
        for name, seconds in self.phase_seconds.items():
            groups[PHASE_GROUPS[name]] += seconds
        return groups

    def seconds_excluding(self, *phases: str) -> float:
        """Total time with the named phases removed.

        The ray-tracing model separates the one-time BVH build from the
        per-frame cost (Eq. 5.1), so repeated-render analyses exclude the
        ``bvh_build`` phase through this helper.
        """
        return float(
            sum(seconds for name, seconds in self.phase_seconds.items() if name not in phases)
        )

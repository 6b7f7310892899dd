"""Synthetic per-phase kernel cost model.

This module is the reproduction's stand-in for running the renderers on GPUs
and other devices that are not physically available (see the substitution
table in DESIGN.md).  Given

* an :class:`~repro.machines.archspec.ArchitectureSpec`,
* a rendering technique, and
* the *observed model-input variables* of a render (objects, active pixels,
  visible objects, pixels per triangle, samples per ray, cells spanned),

it synthesizes per-phase wall-clock times from the same algorithmic-complexity
terms the paper's performance models use, applies the device's fixed kernel
overhead, and perturbs each phase with multiplicative log-normal noise.  The
synthetic corpus therefore has realistic structure (the right dominant terms,
the right device orderings, measurement noise) without pretending to be real
silicon -- exactly what the model-fitting and cross-validation machinery
(Chapter V) needs in order to be exercised end to end.

Crucially the noise means the fitted coefficients are *not* recovered
trivially: the regression sees scattered observations just as it would on
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machines.archspec import ArchitectureSpec, get_architecture
from repro.techniques import ObservedFeatures, get_technique
from repro.util.rng import default_rng

__all__ = ["synthesize_render_time", "KernelCostModel"]


def _objects(features: ObservedFeatures) -> float:
    return max(float(features.objects), 1.0)


def _active_pixels(features: ObservedFeatures) -> float:
    return float(features.active_pixels)


#: ``model family -> ordered (phase, rate, work)``: each phase is one kernel
#: doing ``work(features)`` at the architecture's ``rate`` attribute.  The
#: family is the ``family`` of the technique's row in the technique table.
_FAMILY_PHASES = {
    "raytrace": (
        ("bvh_build", "build_rate", _objects),
        ("trace", "traversal_rate", lambda f: _active_pixels(f) * np.log2(max(_objects(f), 2.0))),
        ("shade", "shade_rate", _active_pixels),
    ),
    "raster": (
        ("culling", "cull_rate", _objects),
        (
            "rasterize",
            "raster_rate",
            lambda f: float(f.visible_objects) * max(float(f.pixels_per_triangle), 0.0),
        ),
    ),
    "volume": (
        ("cell_lookup", "cell_rate", lambda f: _active_pixels(f) * max(float(f.cells_spanned), 1.0)),
        ("sampling", "sample_rate", lambda f: _active_pixels(f) * max(float(f.samples_per_ray), 0.0)),
    ),
}


def synthesize_render_time(
    architecture: ArchitectureSpec | str,
    technique: str,
    features: ObservedFeatures,
    rng: np.random.Generator | None = None,
    include_build: bool = True,
) -> dict[str, float]:
    """Synthesize ``phase name -> seconds`` for one render on one architecture.

    ``architecture`` is a spec or a registered name, ``technique`` a name of
    :data:`repro.techniques.TECHNIQUES`, ``features`` the render's observed (or
    mapped) model-input variables.  ``rng`` is the noise stream (a
    deterministic default is derived from the architecture and technique when
    omitted); ``include_build=False`` leaves out the one-time
    acceleration-structure build phase of the families that have one.
    """
    spec = architecture if isinstance(architecture, ArchitectureSpec) else get_architecture(architecture)
    kernels = _FAMILY_PHASES[get_technique(technique).family]
    rng = rng if rng is not None else default_rng(None, "costmodel", spec.name, technique)
    phases: dict[str, float] = {}
    for name, rate, work in kernels:
        if include_build or name != "bvh_build":
            # One draw of multiplicative log-normal noise (unit median) per phase.
            noise = float(np.exp(rng.normal(0.0, spec.noise_sigma)))
            phases[name] = (work(features) / getattr(spec, rate) + spec.kernel_overhead_seconds) * noise
    return phases


@dataclass
class KernelCostModel:
    """Stateful wrapper: one architecture, one reproducible noise stream.

    Repeated calls draw successive noise samples from the same deterministic
    stream (Table 15's oracle is one model per architecture).
    """

    architecture: ArchitectureSpec | str
    seed: int | None = None

    def __post_init__(self) -> None:
        self.spec = (
            self.architecture
            if isinstance(self.architecture, ArchitectureSpec)
            else get_architecture(self.architecture)
        )
        self._rng = default_rng(self.seed, "kernel-cost", self.spec.name)

    def phases(self, technique: str, features: ObservedFeatures, include_build: bool = True) -> dict[str, float]:
        """Synthesized per-phase seconds for one render."""
        return synthesize_render_time(self.spec, technique, features, self._rng, include_build)

    def total(self, technique: str, features: ObservedFeatures, include_build: bool = True) -> float:
        """Synthesized total seconds for one render."""
        return float(sum(self.phases(technique, features, include_build).values()))

    def frames_per_second(self, technique: str, features: ObservedFeatures, include_build: bool = False) -> float:
        """Convenience: reciprocal of the per-frame time (build excluded by default)."""
        seconds = self.total(technique, features, include_build)
        return 1.0 / max(seconds, 1e-12)

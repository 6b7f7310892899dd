"""Synthetic per-phase kernel cost model.

The reproduction's stand-in for running the renderers on GPUs and other
devices that are not physically available (see the substitution table in
DESIGN.md).  Given an :class:`~repro.machines.archspec.ArchitectureSpec`, a
technique and a render's observed (or mapped) model-input variables, it
synthesizes one phase per term of the technique's equation in
:data:`repro.techniques.MODEL_GROUPS` -- the very terms the fitter's design
matrices hold -- as ``(work / rate + kernel_overhead_seconds) * noise``, with
the rate :data:`~repro.machines.archspec.PHASE_RATES` names and log-normal
noise of unit median: the right dominant terms, device orderings and
measurement scatter for the Chapter V fitting machinery, without pretending
to be real silicon.

So the synthetic corpus has a known answer: fit to a group's summed phases,
each slope is ``E[noise] / rate`` and the intercept ``E[noise] *
kernel_overhead_seconds`` times the group's phase count, where ``E[noise] =
exp(noise_sigma**2 / 2)``; at ``noise_sigma = 0`` the fit recovers them to
rounding (``tests/test_known_answer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machines.archspec import PHASE_RATES, ArchitectureSpec, get_architecture
from repro.techniques import MODEL_GROUPS, ObservedFeatures, get_technique, included_groups
from repro.util.rng import default_rng

__all__ = ["synthesize_render_time", "KernelCostModel"]


def synthesize_render_time(
    architecture: ArchitectureSpec | str,
    technique: str,
    features: ObservedFeatures,
    rng: np.random.Generator,
    include_build: bool = True,
) -> dict[str, float]:
    """Synthesize ``phase name -> seconds`` for one render on one architecture.

    ``architecture`` is a spec or a registered name, ``technique`` a name of
    :data:`repro.techniques.TECHNIQUES`, ``features`` the render's observed (or
    mapped) model-input variables and ``rng`` the noise stream (one draw per
    phase, in term order).  ``include_build=False`` leaves out the one-time
    acceleration-structure build, by the rule a prediction uses.
    """
    spec = architecture if isinstance(architecture, ArchitectureSpec) else get_architecture(architecture)
    groups = MODEL_GROUPS[get_technique(technique).family]
    columns = features.as_dict()
    phases: dict[str, float] = {}
    for group in included_groups(groups, include_build):
        for term in group.terms:
            # One draw of multiplicative log-normal noise (unit median) per phase.
            noise = float(np.exp(rng.normal(0.0, spec.noise_sigma)))
            rate = getattr(spec, PHASE_RATES[term.phase])
            phases[term.phase] = (term.work(columns) / rate + spec.kernel_overhead_seconds) * noise
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

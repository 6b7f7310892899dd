"""Architecture descriptions and the synthetic kernel cost model.

The paper fits architecture-specific coefficients from measurements on real
CPUs and GPUs (LLNL Surface Sandy Bridge + K40m, ORNL Titan K20, plus the
Chapter II/III desktop devices).  That hardware is not available to the
reproduction, so this package supplies the substitution documented in
DESIGN.md:

* :mod:`repro.machines.archspec` -- named architecture specifications: one
  throughput rate per cost-model phase, a per-kernel overhead, a noise level.
* :mod:`repro.machines.costmodel` -- per-phase seconds of a render on a chosen
  architecture, synthesized from the terms of its performance equation with
  multiplicative log-normal noise.

The host architecture (``"cpu-host"``) is special: its times are real
measurements of the numpy renderers, not synthesized.
"""

from repro.machines.archspec import ArchitectureSpec, get_architecture, list_architectures
from repro.machines.costmodel import KernelCostModel, synthesize_render_time

__all__ = [
    "ArchitectureSpec",
    "KernelCostModel",
    "get_architecture",
    "list_architectures",
    "synthesize_render_time",
]

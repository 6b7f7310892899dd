"""Named architecture specifications.

Each :class:`ArchitectureSpec` parameterises the synthetic cost model with
per-term throughput rates (elements per second) chosen so that the synthetic
times land in the same regimes the paper reports for that device -- e.g. a
GTX Titan Black tracing a few hundred million rays per second against a CPU
tracing tens of millions, or a K40m shading roughly an order of magnitude
faster than a 16-core Sandy Bridge node.  The absolute values matter far less
than the ratios: the performance-model methodology fits coefficients per
architecture, so all that must be preserved is which terms dominate and how
the devices compare.

``cpu-host`` is the architecture whose renders are actually *measured* (the
numpy renderers running on the machine executing the study); it has no
synthetic rates.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PHASE_RATES", "ArchitectureSpec", "get_architecture", "list_architectures", "register_architecture",
]

#: ``cost-model phase -> rate attribute``: the kernel of each phase (one term of
#: ``repro.techniques.MODEL_GROUPS``) does its work at this many units per second.
PHASE_RATES = {
    "bvh_build": "build_rate",
    "trace": "traversal_rate",
    "shade": "shade_rate",
    "culling": "cull_rate",
    "rasterize": "raster_rate",
    "cell_lookup": "cell_rate",
    "sampling": "sample_rate",
}


@dataclass(frozen=True)
class ArchitectureSpec:
    """Throughput description of one device.

    Each ``*_rate`` is the work units per second of one cost-model phase:
    :data:`PHASE_RATES` pairs them, and the phase's term in
    ``repro.techniques.MODEL_GROUPS`` defines the unit (``traversal_rate``
    counts active pixels x log2 objects, ``raster_rate`` VO x PPT, ...).

    Attributes
    ----------
    kernel_overhead_seconds:
        Fixed overhead per pipeline phase (kernel launches, API latency).
    noise_sigma:
        Log-normal sigma applied multiplicatively to synthesized phase times.
    """

    name: str
    kind: str  # "cpu", "gpu", or "mic"
    build_rate: float
    traversal_rate: float
    shade_rate: float
    cull_rate: float
    raster_rate: float
    cell_rate: float
    sample_rate: float
    kernel_overhead_seconds: float = 1e-4
    noise_sigma: float = 0.06
    description: str = ""

    def __post_init__(self) -> None:
        for rate in PHASE_RATES.values():
            if getattr(self, rate) <= 0:
                raise ValueError(f"{rate} must be positive")


_REGISTRY: dict[str, ArchitectureSpec] = {}


def register_architecture(spec: ArchitectureSpec) -> None:
    """Add (or replace) an architecture in the registry."""
    _REGISTRY[spec.name] = spec


def get_architecture(name: str) -> ArchitectureSpec:
    """The spec of a named architecture; the one place an unknown name is rejected."""
    try:
        return _REGISTRY[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        choices = ", ".join(list_architectures())
        raise ValueError(f"unknown architecture {name!r}; choose from {choices}") from None


def list_architectures() -> list[str]:
    """Names of all registered architectures."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# The study's devices.  Rates are tuned so full-scale inputs (1080p images,
# millions of triangles) land near the paper's reported frame rates, and so
# the CPU/GPU orderings of Tables 1-8 hold.
# ---------------------------------------------------------------------------

register_architecture(
    ArchitectureSpec(
        name="cpu1-surface",
        kind="cpu",
        description="LLNL Surface node: 2x Intel Xeon E5-2670 (Sandy Bridge), 16 threads",
        # Rates are the reciprocals of the paper's Table 17 CPU1 coefficients.
        build_rate=1.86e7,
        traversal_rate=5.4e8,
        shade_rate=2.9e7,
        cull_rate=7.8e7,
        raster_rate=5.1e8,
        cell_rate=2.7e9,
        sample_rate=2.2e8,
        kernel_overhead_seconds=5e-5,
        noise_sigma=0.08,
    )
)

register_architecture(
    ArchitectureSpec(
        name="gpu1-k40m",
        kind="gpu",
        description="NVIDIA Tesla K40m (LLNL Surface)",
        # Rates are the reciprocals of the paper's Table 17 GPU1 coefficients.
        build_rate=7.6e7,
        traversal_rate=2.75e9,
        shade_rate=4.7e8,
        cull_rate=4.8e8,
        raster_rate=2.7e9,
        cell_rate=7.0e9,
        sample_rate=9.3e8,
        kernel_overhead_seconds=2e-5,
        noise_sigma=0.06,
    )
)

register_architecture(
    ArchitectureSpec(
        name="gpu2-titan-k20",
        kind="gpu",
        description="NVIDIA Tesla K20 (ORNL Titan)",
        # Roughly 80 percent of the K40m rates (fewer SMX units, lower clock).
        build_rate=6.0e7,
        traversal_rate=2.2e9,
        shade_rate=3.8e8,
        cull_rate=3.8e8,
        raster_rate=2.2e9,
        cell_rate=5.6e9,
        sample_rate=7.4e8,
        kernel_overhead_seconds=2e-5,
        noise_sigma=0.07,
    )
)

# Chapter II / III desktop and co-processor devices (used by the substrate
# validation benchmarks, Tables 1-8).
register_architecture(
    ArchitectureSpec(
        name="gpu-titan-black",
        kind="gpu",
        description="GeForce GTX Titan Black (GPU1 of Chapter II)",
        build_rate=3.0e7,
        traversal_rate=1.9e9,
        shade_rate=5.5e8,
        cull_rate=3.0e9,
        raster_rate=1.2e9,
        cell_rate=3.0e9,
        sample_rate=3.0e8,
        kernel_overhead_seconds=1.5e-5,
        noise_sigma=0.05,
    )
)
register_architecture(
    ArchitectureSpec(
        name="gpu-k40-maverick",
        kind="gpu",
        description="Tesla K40 (TACC Maverick, GPU2 of Chapter II)",
        build_rate=2.5e7,
        traversal_rate=1.25e9,
        shade_rate=3.6e8,
        cull_rate=2.5e9,
        raster_rate=1.0e9,
        cell_rate=2.5e9,
        sample_rate=2.5e8,
        kernel_overhead_seconds=2e-5,
        noise_sigma=0.06,
    )
)
register_architecture(
    ArchitectureSpec(
        name="gpu-750ti",
        kind="gpu",
        description="GeForce GTX 750Ti (GPU3 of Chapter II)",
        build_rate=1.0e7,
        traversal_rate=6.5e8,
        shade_rate=1.9e8,
        cull_rate=1.0e9,
        raster_rate=4.0e8,
        cell_rate=1.0e9,
        sample_rate=1.0e8,
        kernel_overhead_seconds=1.5e-5,
        noise_sigma=0.06,
    )
)
register_architecture(
    ArchitectureSpec(
        name="gpu-620m",
        kind="gpu",
        description="GeForce GT 620M laptop GPU (GPU4 of Chapter II)",
        build_rate=2.0e6,
        traversal_rate=8.0e7,
        shade_rate=3.0e7,
        cull_rate=2.0e8,
        raster_rate=6.0e7,
        cell_rate=2.0e8,
        sample_rate=2.0e7,
        kernel_overhead_seconds=3e-5,
        noise_sigma=0.08,
    )
)
register_architecture(
    ArchitectureSpec(
        name="cpu-i7-4770k",
        kind="cpu",
        description="Intel i7 4770K quad core (CPU1 of Chapter II)",
        build_rate=2.0e6,
        traversal_rate=5.5e7,
        shade_rate=1.4e7,
        cull_rate=1.0e8,
        raster_rate=7.0e7,
        cell_rate=4.0e8,
        sample_rate=3.0e7,
        kernel_overhead_seconds=2e-5,
        noise_sigma=0.09,
    )
)
register_architecture(
    ArchitectureSpec(
        name="cpu-xeon-e5-2680",
        kind="cpu",
        description="Intel Xeon E5-2680 v2, 10 cores (CPU2 of Chapter II)",
        build_rate=5.0e6,
        traversal_rate=1.5e8,
        shade_rate=4.0e7,
        cull_rate=2.5e8,
        raster_rate=1.8e8,
        cell_rate=9.0e8,
        sample_rate=7.0e7,
        kernel_overhead_seconds=4e-5,
        noise_sigma=0.08,
    )
)
# ---------------------------------------------------------------------------
# Modern-GPU extrapolation profiles.  Table 15 validates the performance model
# on synthetic architectures; these extend the spectrum past the Kepler-era
# devices the paper measured so the scale study's architecture sweep spans
# roughly three orders of magnitude of device throughput.  Rates extrapolate
# the K40m profile by published peak-FLOP/bandwidth ratios (P100 ~4x, V100
# ~7x, A100 ~14x on the memory-bound terms) with kernel overhead shrinking as
# launch latency improved.
# ---------------------------------------------------------------------------
register_architecture(
    ArchitectureSpec(
        name="gpu-p100",
        kind="gpu",
        description="NVIDIA Tesla P100 (Pascal) -- ~4x K40m extrapolation",
        build_rate=3.0e8,
        traversal_rate=1.1e10,
        shade_rate=1.9e9,
        cull_rate=1.9e9,
        raster_rate=1.1e10,
        cell_rate=2.8e10,
        sample_rate=3.7e9,
        kernel_overhead_seconds=1e-5,
        noise_sigma=0.05,
    )
)
register_architecture(
    ArchitectureSpec(
        name="gpu-v100",
        kind="gpu",
        description="NVIDIA Tesla V100 (Volta) -- ~7x K40m extrapolation",
        build_rate=5.3e8,
        traversal_rate=1.9e10,
        shade_rate=3.3e9,
        cull_rate=3.4e9,
        raster_rate=1.9e10,
        cell_rate=4.9e10,
        sample_rate=6.5e9,
        kernel_overhead_seconds=8e-6,
        noise_sigma=0.05,
    )
)
register_architecture(
    ArchitectureSpec(
        name="gpu-a100",
        kind="gpu",
        description="NVIDIA A100 (Ampere) -- ~14x K40m extrapolation",
        build_rate=1.1e9,
        traversal_rate=3.9e10,
        shade_rate=6.6e9,
        cull_rate=6.7e9,
        raster_rate=3.8e10,
        cell_rate=9.8e10,
        sample_rate=1.3e10,
        kernel_overhead_seconds=6e-6,
        noise_sigma=0.04,
    )
)

register_architecture(
    ArchitectureSpec(
        name="mic-phi-openmp",
        kind="mic",
        description="Intel Xeon Phi 3120 with the OpenMP back-end (vector units idle)",
        build_rate=1.5e6,
        traversal_rate=3.3e7,
        shade_rate=8.0e6,
        cull_rate=6.0e7,
        raster_rate=4.0e7,
        cell_rate=2.0e8,
        sample_rate=1.5e7,
        kernel_overhead_seconds=3e-4,
        noise_sigma=0.10,
    )
)
register_architecture(
    ArchitectureSpec(
        name="mic-phi-ispc",
        kind="mic",
        description="Intel Xeon Phi 3120 with the ISPC back-end (vectorized)",
        build_rate=1.5e6,
        traversal_rate=2.1e8,
        shade_rate=5.0e7,
        cull_rate=3.5e8,
        raster_rate=2.5e8,
        cell_rate=1.2e9,
        sample_rate=9.0e7,
        kernel_overhead_seconds=3e-4,
        noise_sigma=0.10,
    )
)

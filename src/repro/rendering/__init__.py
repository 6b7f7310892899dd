"""Rendering algorithms: ray tracing, rasterization, volume rendering.

Three data-parallel renderers (the Chapter V techniques) plus the Chapter III
unstructured volume renderer and the baseline comparators used throughout the
studies.  All renderers consume :class:`repro.geometry` meshes / scenes and a
:class:`repro.geometry.transforms.Camera`, and implement the
:class:`Renderer` protocol: ``render(camera)`` returns a
:class:`repro.rendering.result.RenderResult` carrying the framebuffer,
per-phase timings (validated against the standardized phase-name schema of
:mod:`repro.rendering.result`), and the observed performance-model input
variables, while ``visibility_depth(camera)`` orders sub-images for sort-last
compositing.  Primary rays for every image-order renderer come from the
shared :class:`repro.rendering.rays.RayEmitter`.
"""

from typing import Protocol, runtime_checkable

from repro.geometry.transforms import Camera
from repro.rendering.color import ColorTable, normalize_scalars
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.rasterizer import Rasterizer, RasterizerConfig
from repro.rendering.rays import RayEmitter
from repro.rendering.raytracer import RayTracer, RayTracerConfig, Workload
from repro.rendering.result import (
    PHASE_GROUP_ORDER,
    PHASE_GROUPS,
    ObservedFeatures,
    PhaseClock,
    RenderResult,
)
from repro.rendering.scene import Light, Material, Scene
from repro.rendering.volume import (
    StructuredVolumeConfig,
    StructuredVolumeRenderer,
    TransferFunction,
    UnstructuredVolumeConfig,
    UnstructuredVolumeRenderer,
)


@runtime_checkable
class Renderer(Protocol):
    """The surface every renderer family presents to the rest of the system.

    ``render`` produces a :class:`RenderResult` (schema-validated phases,
    shared depth convention); ``visibility_depth`` gives the camera-space
    distance used to order sub-images for sort-last OVER compositing.
    """

    def render(self, camera: Camera) -> RenderResult: ...

    def visibility_depth(self, camera: Camera) -> float: ...


__all__ = [
    "ColorTable",
    "Framebuffer",
    "Light",
    "Material",
    "ObservedFeatures",
    "PHASE_GROUPS",
    "PHASE_GROUP_ORDER",
    "PhaseClock",
    "Rasterizer",
    "RasterizerConfig",
    "RayEmitter",
    "RayTracer",
    "RayTracerConfig",
    "RenderResult",
    "Renderer",
    "Scene",
    "StructuredVolumeConfig",
    "StructuredVolumeRenderer",
    "TransferFunction",
    "UnstructuredVolumeConfig",
    "UnstructuredVolumeRenderer",
    "Workload",
    "normalize_scalars",
]

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
shared :class:`repro.rendering.rays.RayEmitter`.  :func:`make_renderer` builds
the renderer of a :data:`repro.techniques.TECHNIQUES` name.
"""

from typing import Protocol, runtime_checkable

from repro.geometry.tetra import tetrahedralize_uniform_grid
from repro.geometry.transforms import Camera
from repro.geometry.triangles import external_faces
from repro.rendering.color import ColorTable, normalize_scalars
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.rasterizer import Rasterizer
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
from repro.techniques import TECHNIQUES, get_technique


@runtime_checkable
class Renderer(Protocol):
    """The surface every renderer family presents to the rest of the system.

    ``render`` produces a :class:`RenderResult` (schema-validated phases,
    shared depth convention); ``visibility_depth`` gives the camera-space
    distance used to order sub-images for sort-last OVER compositing.
    """

    def render(self, camera: Camera) -> RenderResult: ...

    def visibility_depth(self, camera: Camera) -> float: ...


def _ray_tracer(mesh, field_name: str, samples_in_depth: int) -> Renderer:
    scene = Scene(external_faces(mesh, scalar_field=field_name))
    return RayTracer(scene, RayTracerConfig(workload=Workload.SHADING))


def _rasterizer(mesh, field_name: str, samples_in_depth: int) -> Renderer:
    return Rasterizer(Scene(external_faces(mesh, scalar_field=field_name)))


def _structured_volume(grid, field_name: str, samples_in_depth: int) -> Renderer:
    config = StructuredVolumeConfig(samples_in_depth=samples_in_depth)
    return StructuredVolumeRenderer(grid, field_name, config=config)


def _unstructured_volume(grid, field_name: str, samples_in_depth: int) -> Renderer:
    config = UnstructuredVolumeConfig(samples_in_depth=samples_in_depth)
    return UnstructuredVolumeRenderer(tetrahedralize_uniform_grid(grid), field_name, config=config)


#: Geometry preparation plus renderer construction, one entry per ``TECHNIQUES`` row.
_CONSTRUCTORS = {
    "raytrace": _ray_tracer,
    "raster": _rasterizer,
    "volume": _structured_volume,
    "volume_unstructured": _unstructured_volume,
}
if set(_CONSTRUCTORS) != set(TECHNIQUES):
    raise ImportError(f"renderer constructors {sorted(_CONSTRUCTORS)} != TECHNIQUES {sorted(TECHNIQUES)}")


def make_renderer(name: str, mesh, field_name: str, samples_in_depth: int) -> Renderer:
    """The renderer of technique ``name`` over ``mesh`` (surface techniques ignore the sample count)."""
    return _CONSTRUCTORS[get_technique(name).name](mesh, field_name, samples_in_depth)


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
    "make_renderer",
    "normalize_scalars",
]

"""The technique table: one row per rendering technique, one spelling each.

:data:`TECHNIQUES` is the one place that says which techniques exist and what
each needs; the experiment bodies, the Section 5.8 mapping, the cost model,
the model registry, the serving tier and the in situ mini-app read a row
instead of comparing names.  A row's ``name`` is the wire spelling -- what
specs, corpus rows, cache keys, ``models.json``, the CLI and HTTP carry and
what the renderer reports as ``RenderResult.technique``.  Adding a technique
is one row; DESIGN.md ("Technique table") says what a new model family needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.geometry.tetra import tetrahedralize_uniform_grid
from repro.geometry.triangles import external_faces
from repro.rendering import (
    Rasterizer,
    RayTracer,
    RayTracerConfig,
    Renderer,
    Scene,
    StructuredVolumeConfig,
    StructuredVolumeRenderer,
    UnstructuredVolumeConfig,
    UnstructuredVolumeRenderer,
    Workload,
)

__all__ = ["TECHNIQUES", "Technique", "get_technique"]


@dataclass(frozen=True)
class Technique:
    """One rendering technique."""

    name: str
    #: Model family: the key of the technique's equation (``MODEL_GROUPS``), of
    #: its cost-model phases and of its Section 5.8 mapping extras.
    family: str
    #: Renders the block's external faces (``12 N^2`` objects, depth
    #: compositing) rather than its cells (``N^3`` objects, OVER compositing).
    surface: bool
    #: ``(mesh, field_name, samples_in_depth) -> Renderer``: geometry preparation
    #: plus renderer construction (surface techniques ignore the sample count).
    make_renderer: Callable[[object, str, int], Renderer]


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


#: ``name -> row``, in the order presets and help texts list the techniques.
TECHNIQUES = {
    row.name: row
    for row in (
        Technique("raytrace", "raytrace", True, _ray_tracer),
        Technique("raster", "raster", True, _rasterizer),
        Technique("volume", "volume", False, _structured_volume),
        Technique("volume_unstructured", "volume", False, _unstructured_volume),
    )
}


def get_technique(name: str) -> Technique:
    """The row of a technique name; the one place an unknown name is rejected."""
    try:
        return TECHNIQUES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name out of a JSON request
        choices = ", ".join(TECHNIQUES)
        raise ValueError(f"unknown technique {name!r}; choose from {choices}") from None

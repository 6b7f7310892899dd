"""The contract both sides of the system share: technique rows and observed features.

:data:`TECHNIQUES` is the one place that says which techniques exist and what
each needs; the experiment bodies, the Section 5.8 mapping, the cost model,
the model registry, the serving tier and the in situ mini-app read a row
instead of comparing names.  A row's ``name`` is the wire spelling -- what
specs, corpus rows, cache keys, ``models.json``, the CLI and HTTP carry and
what the renderer reports as ``RenderResult.technique``.  Adding a technique
is one row here plus one constructor in :mod:`repro.rendering`; DESIGN.md
("Technique table") says what a new model family needs.  :class:`ObservedFeatures`
is what a render reports and a model is fitted on.  This module imports nothing
from ``repro`` (DESIGN.md, "Layering"): the model side reads it without a renderer.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObservedFeatures", "TECHNIQUES", "Technique", "get_technique"]


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


#: ``name -> row``, in the order presets and help texts list the techniques.
TECHNIQUES = {
    row.name: row
    for row in (
        Technique("raytrace", "raytrace", True),
        Technique("raster", "raster", True),
        Technique("volume", "volume", False),
        Technique("volume_unstructured", "volume", False),
    )
}


def get_technique(name: str) -> Technique:
    """The row of a technique name; the one place an unknown name is rejected."""
    try:
        return TECHNIQUES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name out of a JSON request
        choices = ", ".join(TECHNIQUES)
        raise ValueError(f"unknown technique {name!r}; choose from {choices}") from None


@dataclass
class ObservedFeatures:
    """Observed values of the model input variables for one local render.

    Attributes mirror Section 5.3's variable list.  Variables that do not
    apply to a renderer are left at zero (e.g. ``samples_per_ray`` for the
    ray tracer).
    """

    objects: int = 0
    active_pixels: int = 0
    visible_objects: int = 0
    pixels_per_triangle: float = 0.0
    samples_per_ray: float = 0.0
    cells_spanned: int = 0

    def as_dict(self) -> dict[str, float]:
        """Dictionary keyed by the short names used in the model equations."""
        return {
            "O": float(self.objects),
            "AP": float(self.active_pixels),
            "VO": float(self.visible_objects),
            "PPT": float(self.pixels_per_triangle),
            "SPR": float(self.samples_per_ray),
            "CS": float(self.cells_spanned),
        }

"""The contract both sides of the system share: techniques, equations, observed features.

:data:`TECHNIQUES` is the one place that says which techniques exist and what
each needs; the experiment bodies, the Section 5.8 mapping, the cost model,
the model registry, the serving tier and the in situ mini-app read a row
instead of comparing names.  A row's ``name`` is the wire spelling -- what
specs, corpus rows, cache keys, ``models.json``, the CLI and HTTP carry and
what the renderer reports as ``RenderResult.technique``.  Adding a technique
is one row here plus one constructor in :mod:`repro.rendering`; DESIGN.md
("Technique table") says what a new model family needs.  :data:`MODEL_GROUPS`
is the one definition of each family's performance equation: the fitter
builds its design matrices from it and the cost model synthesizes one phase
per term of it.  :class:`ObservedFeatures` is what a render reports and a
model is fitted on.  This module imports nothing from ``repro`` (DESIGN.md,
"Layering"): the model side reads it without a renderer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "MODEL_GROUPS", "ObservedFeatures", "TECHNIQUES", "Technique", "Term", "TermGroup", "get_technique",
    "included_groups",
]


@dataclass(frozen=True)
class Technique:
    """One rendering technique."""

    name: str
    #: Model family: the key of the technique's equation and cost-model phases
    #: (:data:`MODEL_GROUPS`) and of its Section 5.8 mapping extras.
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


@dataclass(frozen=True)
class Term:
    """One non-intercept term of an equation: ``coefficient * work(columns)``.

    ``phase`` is the cost-model kernel doing the work (``None`` for
    compositing, which the simulated network times).  ``work`` reads columns
    named like :class:`ObservedFeatures` attributes, as floats or as arrays.
    """

    coefficient: str
    phase: str | None
    work: Callable


@dataclass(frozen=True)
class TermGroup:
    """One linear regression: its terms plus an intercept, fit to one measured time."""

    name: str
    terms: tuple[Term, ...]
    intercept: str
    nonnegative: bool = True  # the paper reads a negative coefficient as an invalid model

    @property
    def term_names(self) -> tuple[str, ...]:
        """Coefficient names in design-matrix column order, the intercept last."""
        return (*(term.coefficient for term in self.terms), self.intercept)


def _ap_log_o(c):
    return c["active_pixels"] * np.log2(np.maximum(c["objects"], 2.0))  # log2 of an empty scene is clamped


#: ``model family -> ordered term groups``: the paper's Eqs. 5.1-5.3 and 5.5.
#: The compositing group keeps plain OLS, matching its negative intercept in
#: Table 17.
MODEL_GROUPS = {
    # Eq. 5.1: (c0 * O + c1) + (c2 * (AP * log2(O)) + c3 * AP + c4)
    "raytrace": (
        TermGroup("build", (Term("c0_objects", "bvh_build", lambda c: c["objects"]),), "c1_intercept"),
        TermGroup("frame", (
            Term("c2_ap_log_o", "trace", _ap_log_o),
            Term("c3_ap", "shade", lambda c: c["active_pixels"]),
        ), "c4_intercept"),
    ),
    # Eq. 5.2: c0 * O + c1 * (VO * PPT) + c2
    "raster": (
        TermGroup("fit", (
            Term("c0_objects", "culling", lambda c: c["objects"]),
            Term("c1_vo_ppt", "rasterize", lambda c: c["visible_objects"] * c["pixels_per_triangle"]),
        ), "c2_intercept"),
    ),
    # Eq. 5.3: c0 * (AP * CS) + c1 * (AP * SPR) + c2
    "volume": (
        TermGroup("fit", (
            Term("c0_ap_cs", "cell_lookup", lambda c: c["active_pixels"] * c["cells_spanned"]),
            Term("c1_ap_spr", "sampling", lambda c: c["active_pixels"] * c["samples_per_ray"]),
        ), "c2_intercept"),
    ),
    # Eq. 5.5: c0 * avg(AP) + c1 * Pixels + c2
    "compositing": (
        TermGroup("fit", (
            Term("c0_avg_active_pixels", None, lambda c: c["average_active_pixels"]),
            Term("c1_pixels", None, lambda c: c["pixels"]),
        ), "c2_intercept", nonnegative=False),
    ),
}


def included_groups(groups: tuple[TermGroup, ...], include_build: bool) -> list[TermGroup]:
    """The groups a time sums: ``include_build=False`` leaves out the group named
    ``build`` (the one-time BVH construction); a family without one is unaffected."""
    return [group for group in groups if include_build or group.name != "build"]


@dataclass
class ObservedFeatures:
    """Observed values of the model input variables for one local render.

    Attributes mirror Section 5.3's variable list, and their order is the one
    list of the model inputs: feature columns, the Section 5.8 mapping's
    output and a corpus row's ``features`` block all follow it.  Variables
    that do not apply to a renderer are left at zero (e.g. ``samples_per_ray``
    for the ray tracer).
    """

    objects: int = 0
    active_pixels: int = 0
    visible_objects: int = 0
    pixels_per_triangle: float = 0.0
    samples_per_ray: float = 0.0
    cells_spanned: int = 0

    def as_dict(self) -> dict[str, float]:
        """One render's feature columns (attribute name -> float): the scalar twin
        of ``repro.modeling.features.feature_arrays`` that a :class:`Term` reads."""
        return {item.name: float(getattr(self, item.name)) for item in fields(self)}

    @classmethod
    def from_columns(cls, columns: dict) -> "ObservedFeatures":
        """One observation from a value per attribute name, each cast to its
        declared type (every default is a zero of that type)."""
        return cls(**{item.name: type(item.default)(columns[item.name]) for item in fields(cls)})

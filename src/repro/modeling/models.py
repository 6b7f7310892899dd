"""The per-technique performance models (Equations 5.1 - 5.5).

A performance model is a table of *term groups*.  Each group is one linear
regression -- the paper fits them with R's ``lm`` -- over a short list of terms
computed from the observed (or mapped) input variables; the model's prediction
is the sum of its groups.  :data:`MODEL_GROUPS` is that table, and it is the
list of the paper's equations:

==============  =========  ==============================================
family          group      equation
==============  =========  ==============================================
``raytrace``    ``build``  Eq. 5.1, first half:  ``c0 * O + c1``
``raytrace``    ``frame``  Eq. 5.1, second half: ``c2 * (AP * log2(O)) + c3 * AP + c4``
``raster``      ``fit``    Eq. 5.2: ``c0 * O + c1 * (VO * PPT) + c2``
``volume``      ``fit``    Eq. 5.3: ``c0 * (AP * CS) + c1 * (AP * SPR) + c2``
``compositing`` ``fit``    Eq. 5.5: ``c0 * avg(AP) + c1 * Pixels + c2``
==============  =========  ==============================================

A rendering technique's row in :data:`repro.techniques.TECHNIQUES` names its
family: both volume renderers share Eq. 5.3.

Ray tracing is the one row with two groups: the acceleration-structure build
is timed and fit separately so repeated-rendering analyses can amortise it
(``predict(..., include_build=False)`` skips the group named ``build``).
Everything else -- fitting, cross validation, prediction, the coefficient
table -- is written once over ``model.groups`` and never asks which technique
it is serving.

Each equation has exactly one definition: the vectorized ``*_terms`` function
of its group, mapping feature column arrays (see
:func:`repro.modeling.features.feature_arrays`) to the ``(n, p)`` design
matrix.  A single observation is the one-row batch.

The total multi-node time (Eq. 5.4, ``T_total = max_tasks(T_LR) + T_COMP``)
is composed by its one consumer, :mod:`repro.modeling.feasibility`.
"""

from __future__ import annotations

import numpy as np

from repro.modeling.crossval import CrossValidationSummary, k_fold_cross_validation
from repro.modeling.features import feature_arrays
from repro.modeling.regression import LinearRegressionResult, fit_linear_model
from repro.techniques import ObservedFeatures, get_technique

__all__ = ["MODEL_GROUPS", "PerformanceModel", "make_model"]


def _raytrace_build_terms(arrays: dict[str, np.ndarray]) -> np.ndarray:
    objects = np.asarray(arrays["objects"], dtype=np.float64)
    return np.stack([objects, np.ones_like(objects)], axis=1)


def _raytrace_frame_terms(arrays: dict[str, np.ndarray]) -> np.ndarray:
    objects = np.maximum(np.asarray(arrays["objects"], dtype=np.float64), 2.0)
    active = np.asarray(arrays["active_pixels"], dtype=np.float64)
    return np.stack([active * np.log2(objects), active, np.ones_like(active)], axis=1)


def _raster_terms(arrays: dict[str, np.ndarray]) -> np.ndarray:
    objects = np.asarray(arrays["objects"], dtype=np.float64)
    candidates = np.asarray(arrays["visible_objects"], dtype=np.float64) * np.asarray(
        arrays["pixels_per_triangle"], dtype=np.float64
    )
    return np.stack([objects, candidates, np.ones_like(objects)], axis=1)


def _volume_terms(arrays: dict[str, np.ndarray]) -> np.ndarray:
    active = np.asarray(arrays["active_pixels"], dtype=np.float64)
    cells = np.asarray(arrays["cells_spanned"], dtype=np.float64)
    samples = np.asarray(arrays["samples_per_ray"], dtype=np.float64)
    return np.stack([active * cells, active * samples, np.ones_like(active)], axis=1)


def _compositing_terms(arrays: dict[str, np.ndarray]) -> np.ndarray:
    active = np.asarray(arrays["average_active_pixels"], dtype=np.float64)
    pixels = np.asarray(arrays["pixels"], dtype=np.float64)
    return np.stack([active, pixels, np.ones_like(active)], axis=1)


#: ``model family -> ordered term groups``, each group a ``(name, term_names,
#: term_matrix, nonnegative)`` tuple.  ``term_matrix(arrays)`` builds the
#: ``(n, p)`` design from feature column arrays.  Renderer groups constrain
#: coefficients to be non-negative (the paper treats negative coefficients as
#: a sign of an invalid model); the compositing group keeps plain OLS,
#: matching its negative intercept in Table 17.
MODEL_GROUPS = {
    "raytrace": (
        ("build", ("c0_objects", "c1_intercept"), _raytrace_build_terms, True),
        ("frame", ("c2_ap_log_o", "c3_ap", "c4_intercept"), _raytrace_frame_terms, True),
    ),
    "raster": (("fit", ("c0_objects", "c1_vo_ppt", "c2_intercept"), _raster_terms, True),),
    "volume": (("fit", ("c0_ap_cs", "c1_ap_spr", "c2_intercept"), _volume_terms, True),),
    "compositing": (
        ("fit", ("c0_avg_active_pixels", "c1_pixels", "c2_intercept"), _compositing_terms, False),
    ),
}


def _columns(features) -> dict[str, np.ndarray]:
    """Feature column arrays of a batch given as arrays or as a list of observations."""
    return features if isinstance(features, dict) else feature_arrays(features)


class PerformanceModel:
    """One technique's model: its term groups and, once fit, one OLS result per group.

    A batch of inputs is either feature column arrays (a ``dict`` of aligned
    float64 columns) or a list of :class:`ObservedFeatures`.
    """

    def __init__(self, technique: str, groups: tuple) -> None:
        self.technique = technique
        self.groups = groups
        self.fits: dict[str, LinearRegressionResult] = {}

    def fit(self, features, *targets: np.ndarray) -> dict[str, LinearRegressionResult]:
        """Fit every group to its observed times (one target per group, in group order)."""
        arrays = _columns(features)
        self.fits = {
            name: fit_linear_model(term_matrix(arrays), target, term_names, nonnegative=nonnegative)
            for (name, term_names, term_matrix, nonnegative), target in zip(
                self.groups, targets, strict=True
            )
        }
        return self.fits

    def cross_validate(
        self, features, *targets: np.ndarray, k: int = 3, seed: int | None = None
    ) -> CrossValidationSummary:
        """K-fold cross validation of the *total* (summed over groups) prediction.

        The design concatenates every group's terms so each fold fits the same
        structure the full model uses.
        """
        arrays = _columns(features)
        design = np.concatenate([term_matrix(arrays) for _, _, term_matrix, _ in self.groups], axis=1)
        nonnegative = all(nonnegative for *_, nonnegative in self.groups)
        return k_fold_cross_validation(design, np.sum(targets, axis=0), k, seed, nonnegative=nonnegative)

    def group_fits(self, include_build: bool = True) -> list[tuple[object, LinearRegressionResult]]:
        """The ``(term_matrix, fit)`` pairs a prediction sums, in group order.

        ``include_build=False`` leaves out the group named ``build`` (the
        one-time BVH construction); a model without one is unaffected.
        """
        if not self.fits:
            raise RuntimeError(f"the {self.technique} model has not been fit yet")
        return [
            (term_matrix, self.fits[name])
            for name, _, term_matrix, _ in self.groups
            if include_build or name != "build"
        ]

    def predict(self, features, include_build: bool = True):
        """Predicted seconds: an array for a batch, a float for one :class:`ObservedFeatures`."""
        if isinstance(features, ObservedFeatures):
            return float(self.predict([features], include_build)[0])
        arrays = _columns(features)
        seconds = None
        for term_matrix, fit in self.group_fits(include_build):
            group_seconds = fit.predict(term_matrix(arrays))
            seconds = group_seconds if seconds is None else seconds + group_seconds
        return seconds

    @property
    def coefficients(self) -> dict[str, float]:
        """Named coefficients of every group, in group order (Table 17 layout)."""
        named: dict[str, float] = {}
        for name, *_ in self.groups:
            named.update(self.fits[name].named_coefficients())
        return named

    @property
    def r_squared(self) -> float:
        """R-squared of the last group: the render-time fit (for ray tracing the
        paper reports the per-frame fit, not the build's)."""
        return self.fits[self.groups[-1][0]].r_squared


def make_model(technique: str) -> PerformanceModel:
    """An unfit model for a rendering technique name, or for ``"compositing"``."""
    family = technique if technique == "compositing" else get_technique(technique).family
    return PerformanceModel(technique, MODEL_GROUPS[family])

"""The per-technique performance models (Equations 5.1 - 5.5).

A performance model is a table of *term groups*.  Each group is one linear
regression -- the paper fits them with R's ``lm`` -- over a short list of terms
computed from the observed (or mapped) input variables; the model's prediction
is the sum of its groups.  :data:`repro.techniques.MODEL_GROUPS` is that table
(re-exported here), and it is the list of the paper's equations:

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

Each equation has exactly one definition, the ``work`` of each of its terms:
fitting stacks it into :func:`design_matrix`, prediction sums it times its
coefficient without one (both on feature column arrays; a single
observation is the one-row batch), the cost model evaluates it on one
render's floats.

The total multi-node time (Eq. 5.4, ``T_total = max_tasks(T_LR) + T_COMP``)
is composed by its one consumer, :mod:`repro.modeling.feasibility`.
"""

from __future__ import annotations

import numpy as np

from repro.modeling.crossval import FOLDS, CrossValidationSummary, k_fold_cross_validation
from repro.modeling.features import feature_arrays
from repro.modeling.regression import LinearRegressionResult, fit_linear_model
from repro.techniques import MODEL_GROUPS, ObservedFeatures, TermGroup, get_technique, included_groups

__all__ = ["MODEL_GROUPS", "PerformanceModel", "design_matrix", "make_model"]


def design_matrix(group: TermGroup, columns: dict[str, np.ndarray]) -> np.ndarray:
    """The ``(n, p)`` design of one group: each term's work column, then a ones column."""
    works = [term.work(columns) for term in group.terms]
    design = np.ones((len(works[0]), len(works) + 1))
    for column, work in enumerate(works):
        design[:, column] = work
    return design


def _columns(features) -> dict[str, np.ndarray]:
    """Float64 feature columns of a batch given as column sequences or as a list of observations."""
    if isinstance(features, dict):
        return {name: np.asarray(column, dtype=np.float64) for name, column in features.items()}
    return feature_arrays(features)


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
        columns = _columns(features)
        self.fits = {
            group.name: fit_linear_model(
                design_matrix(group, columns), target, group.term_names, nonnegative=group.nonnegative
            )
            for group, target in zip(self.groups, targets, strict=True)
        }
        return self.fits

    def cross_validate(
        self, features, *targets: np.ndarray, k: int = FOLDS, seed: int | None = None
    ) -> CrossValidationSummary:
        """K-fold cross validation of the *total* (summed over groups) prediction.

        The design concatenates every group's terms so each fold fits the same
        structure the full model uses.
        """
        columns = _columns(features)
        design = np.concatenate([design_matrix(group, columns) for group in self.groups], axis=1)
        nonnegative = all(group.nonnegative for group in self.groups)
        return k_fold_cross_validation(design, np.sum(targets, axis=0), k, seed, nonnegative=nonnegative)

    def group_fits(self, include_build: bool = True) -> list[tuple[TermGroup, LinearRegressionResult]]:
        """The ``(group, fit)`` pairs a prediction sums, in group order
        (:func:`repro.techniques.included_groups` decides which)."""
        if not self.fits:
            raise RuntimeError(f"the {self.technique} model has not been fit yet")
        return [(group, self.fits[group.name]) for group in included_groups(self.groups, include_build)]

    def predict(self, features, include_build: bool = True):
        """Predicted seconds: an array for a batch, a float for one :class:`ObservedFeatures`."""
        if isinstance(features, ObservedFeatures):
            return float(self.predict([features], include_build)[0])
        columns = _columns(features)
        seconds = None
        for group, fit in self.group_fits(include_build):
            group_seconds = fit.predict_terms([term.work(columns) for term in group.terms])
            seconds = group_seconds if seconds is None else seconds + group_seconds
        return seconds

    @property
    def coefficients(self) -> dict[str, float]:
        """Named coefficients of every group, in group order (Table 17 layout)."""
        named: dict[str, float] = {}
        for group in self.groups:
            named.update(self.fits[group.name].named_coefficients())
        return named

    @property
    def r_squared(self) -> float:
        """R-squared of the last group: the render-time fit (for ray tracing the
        paper reports the per-frame fit, not the build's)."""
        return self.fits[self.groups[-1].name].r_squared


def make_model(technique: str) -> PerformanceModel:
    """An unfit model for a rendering technique name, or for ``"compositing"``."""
    family = technique if technique == "compositing" else get_technique(technique).family
    return PerformanceModel(technique, MODEL_GROUPS[family])

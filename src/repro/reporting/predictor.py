"""Vectorized batch prediction with bounded-error intervals -- the serving seam.

A :class:`Predictor` wraps a :class:`~repro.reporting.suite.ModelSuite`
(usually loaded from ``models.json``) and answers prediction queries for
thousands of configurations per call:

* :meth:`Predictor.predict_configurations` -- user-facing configurations
  (tasks, data size, resolution) go through the vectorized Section 5.8
  mapping (:func:`repro.modeling.features.map_configuration_batch`) and the
  vectorized design matrices of :mod:`repro.modeling.models`; one BLAS
  matrix-vector product per fit group serves the whole batch.
* :meth:`Predictor.predict_features` -- observed (or pre-mapped) model inputs,
  the path that reproduces a corpus's in-sample predictions bit for bit.
* :meth:`Predictor.predict_compositing` -- Eq. 5.5 queries.

Every answer is a :class:`PredictionBatch` carrying a symmetric
residual-standard-deviation interval: ``seconds +- sigmas * residual_std``
with the lower bound clipped at zero (run times are non-negative).  The
interval is the fit's residual standard error -- the same "bounded error"
contract the paper's Table 15 validation leans on -- not a formal prediction
interval; DESIGN.md documents the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.modeling.features import (
    SAMPLES_IN_DEPTH,
    active_pixel_estimate,
    feature_arrays,
    map_configuration_batch,
    task_shrink,
)
from repro.reporting.suite import FittedModel, ModelSuite
from repro.techniques import ObservedFeatures

__all__ = ["PredictionBatch", "Predictor", "DEFAULT_INTERVAL_SIGMAS"]

#: Interval half-width in residual standard deviations (~95% under normality).
DEFAULT_INTERVAL_SIGMAS = 2.0


@dataclass
class PredictionBatch:
    """Predicted seconds plus the bounded-error band for one query batch."""

    seconds: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    residual_std: float

    def __len__(self) -> int:
        return len(self.seconds)


class Predictor:
    """Batch prediction over every model of a fitted (or loaded) suite."""

    def __init__(self, suite: ModelSuite) -> None:
        self.suite = suite
        self._plans: dict[tuple[str, str, bool], float] = {}

    @classmethod
    def load(cls, path: str | Path) -> "Predictor":
        """Load a ``models.json`` written by :meth:`ModelSuite.save`."""
        return cls(ModelSuite.load(path))

    # -- introspection -----------------------------------------------------------------
    def available(self) -> list[tuple[str, str]]:
        """Sorted ``(architecture, technique)`` keys this predictor serves."""
        keys = sorted(self.suite.entries)
        if self.suite.compositing is not None:
            keys.append(self.suite.compositing.key)
        return keys

    # -- prediction --------------------------------------------------------------------
    def predict_features(
        self,
        architecture: str,
        technique: str,
        features: list[ObservedFeatures] | dict[str, np.ndarray],
        include_build: bool = True,
        sigmas: float = DEFAULT_INTERVAL_SIGMAS,
    ) -> PredictionBatch:
        """Predict from observed/mapped model inputs.

        ``features`` is either a list of :class:`ObservedFeatures` (corpus
        rows) or a dictionary of aligned column arrays.  On a fitted suite
        this reproduces ``model.predict`` exactly (the round-trip
        guarantee the reporting acceptance tests pin down).
        """
        entry = self.suite.get(architecture, technique)
        arrays = features if isinstance(features, dict) else feature_arrays(features)
        return self._predict_entry(entry, arrays, include_build, sigmas)

    def predict_configurations(
        self,
        architecture: str,
        technique: str,
        num_tasks: np.ndarray | int,
        cells_per_task: np.ndarray | int,
        image_width: np.ndarray | int,
        image_height: np.ndarray | int,
        samples_in_depth: np.ndarray | int = SAMPLES_IN_DEPTH,
        include_build: bool = True,
        sigmas: float = DEFAULT_INTERVAL_SIGMAS,
    ) -> PredictionBatch:
        """Predict user-facing configurations through the Section 5.8 mapping.

        All configuration parameters broadcast, so a resolution sweep is one
        call with an array of image sizes; the whole batch is mapped and
        predicted vectorized.
        """
        arrays = map_configuration_batch(
            technique, num_tasks, cells_per_task, image_width, image_height, samples_in_depth
        )
        return self.predict_features(architecture, technique, arrays, include_build, sigmas)

    def predict_compositing(
        self,
        average_active_pixels: np.ndarray | float,
        pixels: np.ndarray | int,
        sigmas: float = DEFAULT_INTERVAL_SIGMAS,
    ) -> PredictionBatch:
        """Predict Eq. 5.5 compositing times for a batch of (avg AP, pixels)."""
        entry = self.suite.get("", "compositing")
        active, pixel_counts = np.broadcast_arrays(
            np.atleast_1d(np.asarray(average_active_pixels, dtype=np.float64)),
            np.atleast_1d(np.asarray(pixels, dtype=np.float64)),
        )
        arrays = {"average_active_pixels": active, "pixels": pixel_counts}
        return self._predict_entry(entry, arrays, include_build=False, sigmas=sigmas)

    def interval_widths_for_specs(self, spec_payloads: list[dict]) -> np.ndarray:
        """Prediction-interval widths (``upper - lower``) for sweep-spec payloads.

        The adaptive planner's scoring seam: each payload is one
        :meth:`~repro.study.plan.ExperimentSpec.key_payload` and the returned
        array is aligned with the input.  Specs are grouped by model slice and
        served with one vectorized call per group:

        * ``render``/``synthetic`` specs go through the Section 5.8 mapping
          (``include_build=True``, so ray-tracing widths quadrature-combine
          the build and frame residuals);
        * ``compositing`` specs take their ``avg(AP)`` from the mapping's
          a-priori :func:`~repro.modeling.features.active_pixel_estimate`;
        * a spec whose ``(architecture, technique)`` slice has no fitted model
          scores ``inf`` -- an unfit slice is maximal uncertainty and must
          outrank every fitted one.

        Widths are taken at :data:`DEFAULT_INTERVAL_SIGMAS`, read at call
        time, and inherit the interval contract, including the clip of the lower
        bound at zero: a configuration whose predicted seconds sit inside the
        half-width has a genuinely narrower (one-sided) interval.
        """
        sigmas = DEFAULT_INTERVAL_SIGMAS
        widths = np.empty(len(spec_payloads), dtype=np.float64)
        groups: dict[tuple[str, str], list[int]] = {}
        for index, payload in enumerate(spec_payloads):
            if payload.get("kind") == "compositing":
                key = ("", "compositing")
            else:
                key = (payload["architecture"], payload["technique"])
            groups.setdefault(key, []).append(index)
        for (architecture, technique), indices in groups.items():
            try:
                self.suite.get(architecture, technique)
            except KeyError:
                widths[indices] = np.inf
                continue
            rows = [spec_payloads[index] for index in indices]
            if technique == "compositing":
                pixels = np.array([float(row["pixel_size"]) ** 2 for row in rows], dtype=np.float64)
                tasks = np.array([float(row["num_tasks"]) for row in rows], dtype=np.float64)
                active = active_pixel_estimate(pixels, task_shrink(tasks))
                batch = self.predict_compositing(active, pixels, sigmas=sigmas)
            else:
                samples = np.array(
                    [
                        float(
                            row["samples_in_depth"]
                            if row.get("kind") == "render"
                            else row["synthetic_samples_in_depth"]
                        )
                        for row in rows
                    ],
                    dtype=np.float64,
                )
                batch = self.predict_configurations(
                    architecture,
                    technique,
                    np.array([float(row["num_tasks"]) for row in rows]),
                    np.array([float(row["cells_per_task"]) for row in rows]),
                    np.array([float(row["image_width"]) for row in rows]),
                    np.array([float(row["image_height"]) for row in rows]),
                    samples_in_depth=samples,
                    include_build=True,
                    sigmas=sigmas,
                )
            widths[indices] = batch.upper - batch.lower
        return widths

    # -- internals ---------------------------------------------------------------------
    def term_plan(self, entry: FittedModel, include_build: bool) -> float:
        """The cached combined residual std of one entry and build-inclusion choice.

        A single group's interval is its own residual standard deviation;
        several groups (ray tracing with the build included) combine in
        quadrature.  Computed once per ``(architecture, technique,
        include_build)`` shape: the serving tier's hot path hits this
        thousands of times per second, and every later call is a dictionary
        hit with no new structure allocated.
        """
        key = (entry.architecture, entry.technique, include_build)
        residual_std = self._plans.get(key)
        if residual_std is None:
            stds = [float(fit.residual_std) for _, fit in entry.model.group_fits(include_build)]
            residual_std = stds[0] if len(stds) == 1 else float(np.sqrt(sum(std**2 for std in stds)))
            self._plans[key] = residual_std
        return residual_std

    def _predict_entry(
        self, entry: FittedModel, arrays: dict[str, np.ndarray], include_build: bool, sigmas: float
    ) -> PredictionBatch:
        seconds = entry.model.predict(arrays, include_build)
        residual_std = self.term_plan(entry, include_build)
        half_width = sigmas * residual_std
        return PredictionBatch(
            seconds=seconds,
            lower=np.maximum(seconds - half_width, 0.0),
            upper=seconds + half_width,
            residual_std=residual_std,
        )

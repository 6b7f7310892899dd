"""Edge cases of cross-validation, regression, and feasibility analyses.

Degenerate corpora the sweep engine can now produce at will -- tiny shards,
constant-feature slices, corpora carrying failure rows -- must degrade loudly
(clear ``ValueError``) or gracefully (finite results), never silently corrupt
a fit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.modeling.crossval import k_fold_cross_validation
from repro.modeling.feasibility import images_within_budget, raytracing_vs_rasterization
from repro.modeling.regression import fit_linear_model
from repro.modeling.study import FailureRecord, StudyConfiguration, StudyCorpus
from repro.study import corpus_io, run_study


def _design(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    design = np.column_stack([np.ones(n), rng.uniform(1.0, 9.0, n)])
    response = design @ np.array([0.5, 2.0]) + rng.normal(0.0, 0.01, n)
    return design, response


class TestCrossValidationEdgeCases:
    def test_single_fold_rejected(self):
        design, response = _design(10)
        with pytest.raises(ValueError, match="at least 2"):
            k_fold_cross_validation(design, response, k=1)

    def test_corpus_smaller_than_folds_rejected(self):
        design, response = _design(5)
        with pytest.raises(ValueError, match="need at least 6 observations"):
            k_fold_cross_validation(design, response, k=3)

    def test_minimum_viable_corpus(self):
        # Exactly 2k observations: every fold trains on k+ rows and predicts.
        design, response = _design(6)
        summary = k_fold_cross_validation(design, response, k=3, seed=1)
        assert len(summary.errors) == 6
        assert summary.num_folds == 3
        assert np.all(np.isfinite(summary.errors))

    def test_constant_feature_column(self):
        # A degenerate (constant) feature column must not poison the folds:
        # lstsq resolves the collinearity with the intercept, predictions and
        # errors stay finite.
        rng = np.random.default_rng(3)
        n = 12
        design = np.column_stack([np.ones(n), np.full(n, 7.0), rng.uniform(1.0, 5.0, n)])
        response = 3.0 * design[:, 2] + rng.normal(0.0, 0.01, n)
        summary = k_fold_cross_validation(design, response, k=3, seed=2)
        assert np.all(np.isfinite(summary.predictions))
        assert np.all(np.isfinite(summary.errors))
        assert summary.fraction_within(25.0) > 0.5

    def test_constant_feature_column_nonnegative(self):
        rng = np.random.default_rng(4)
        n = 12
        design = np.column_stack([np.ones(n), np.zeros(n), rng.uniform(1.0, 5.0, n)])
        response = 3.0 * design[:, 2] + rng.normal(0.0, 0.01, n)
        summary = k_fold_cross_validation(design, response, k=3, seed=2, nonnegative=True)
        assert np.all(np.isfinite(summary.predictions))

    def test_constant_response(self):
        # Zero response variance: R^2 degenerates to 1.0 by convention and
        # held-out errors are ~zero rather than NaN.
        design, _ = _design(9)
        response = np.full(9, 4.0)
        fit = fit_linear_model(design, response)
        assert fit.r_squared == 1.0
        summary = k_fold_cross_validation(design, response, k=3, seed=0)
        assert np.all(np.abs(summary.errors) < 1e-8)


class TestRegressionEdgeCases:
    def test_all_zero_column_nonnegative(self):
        design = np.column_stack([np.ones(8), np.zeros(8)])
        response = np.full(8, 2.0)
        fit = fit_linear_model(design, response, nonnegative=True)
        assert fit.coefficients[0] == pytest.approx(2.0)
        assert np.isfinite(fit.residual_std)

    def test_more_parameters_than_observations_rejected(self):
        with pytest.raises(ValueError, match="need at least"):
            fit_linear_model(np.ones((2, 3)), np.ones(2))


@pytest.fixture(scope="module")
def tiny_models():
    """Synthetic-only corpus (no rendering): fast fitted models for one device."""
    config = StudyConfiguration(architectures=("gpu1-k40m",), samples_per_technique=6, seed=11)
    corpus = run_study(config, include_compositing=False)
    return corpus.fit_all_models()


class TestFeasibilityEdgeCases:
    def test_empty_model_dict(self):
        assert images_within_budget({}, budget_seconds=60.0) == []

    def test_zero_budget_never_negative(self, tiny_models):
        points = images_within_budget(
            tiny_models, budget_seconds=0.0, image_sizes=np.array([1024])
        )
        assert points
        assert all(p.images_in_budget >= 0 for p in points)
        assert all(p.seconds_per_image > 0 for p in points)

    def test_single_cell_heat_map(self, tiny_models):
        heat = raytracing_vs_rasterization(
            tiny_models[("gpu1-k40m", "raytrace")],
            tiny_models[("gpu1-k40m", "raster")],
            "gpu1-k40m",
            image_sizes=np.array([1024]),
            data_sizes=np.array([200]),
        )
        assert heat["ratio"].shape == (1, 1)
        assert np.isfinite(heat["ratio"]).all()


class TestFailureRowHandling:
    """The new corpus format's failure rows must never perturb the models."""

    def _corpus_with_failures(self) -> StudyCorpus:
        config = StudyConfiguration(
            architectures=("gpu1-k40m",),
            samples_per_technique=6,
            seed=13,
            compositing_task_counts=(2, 4),
            compositing_pixel_sizes=(32,),
        )
        corpus = run_study(config)
        corpus.failures.append(
            FailureRecord(kind="render", reason="crash", spec={"technique": "raytrace"})
        )
        return corpus

    def test_fits_ignore_failures(self):
        corpus = self._corpus_with_failures()
        with_failures = corpus.fit_all_models()
        pristine = StudyCorpus(records=corpus.records, compositing_records=corpus.compositing_records)
        without_failures = pristine.fit_all_models()
        assert with_failures.keys() == without_failures.keys()
        for key in with_failures:
            assert with_failures[key].r_squared == without_failures[key].r_squared

    def test_crossval_ignores_failures(self):
        corpus = self._corpus_with_failures()
        summary = corpus.cross_validate("gpu1-k40m", "volume", k=3, seed=5)
        assert len(summary.errors) == len(corpus.select("gpu1-k40m", "volume"))

    def test_empty_failures_round_trip(self, tmp_path):
        corpus = StudyCorpus()
        loaded = corpus_io.load_corpus(corpus_io.save_corpus(corpus, tmp_path / "empty.json"))
        assert loaded.records == [] and loaded.failures == []

    def test_failure_only_corpus_refuses_to_fit(self, tmp_path):
        corpus = StudyCorpus(failures=[FailureRecord(kind="render", reason="error", spec={})])
        loaded = corpus_io.load_corpus(corpus_io.save_corpus(corpus, tmp_path / "failures.json"))
        assert len(loaded.failures) == 1
        assert loaded.fit_all_models() == {}
        with pytest.raises(ValueError, match="no records"):
            loaded.fit_model("gpu1-k40m", "volume")
        with pytest.raises(ValueError, match="no records"):
            loaded.fit_model("-", "compositing")

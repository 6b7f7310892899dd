"""Integration tests: the study sweep, the model fits and the feasibility analyses end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.modeling import RenderingConfiguration, map_configuration_to_features
from repro.modeling.feasibility import images_within_budget, raytracing_vs_rasterization
from repro.modeling.study import COMPOSITING_ARCHITECTURE, StudyConfiguration
from repro.reporting import ModelSuite
from repro.reporting.tables import (
    LARGE_SCALE_CELLS,
    LARGE_SCALE_IMAGE,
    LARGE_SCALE_TASKS,
    table15_large_scale_prediction,
)
from repro.study import run_study


@pytest.fixture(scope="module")
def small_corpus():
    """A reduced-size study sweep shared by every test in this module."""
    config = StudyConfiguration(
        samples_per_technique=8,
        task_counts=(1, 2, 4),
        image_size_range=(48, 112),
        cells_per_task_range=(8, 16),
        samples_in_depth=40,
        seed=99,
    )
    return run_study(config)


@pytest.fixture(scope="module")
def fitted_models(small_corpus):
    return small_corpus.fit_all_models()


class TestStudyCorpus:
    def test_corpus_covers_architectures_and_techniques(self, small_corpus):
        assert set(small_corpus.architectures()) == {"cpu-host", "gpu1-k40m"}
        assert set(small_corpus.techniques()) == {"raytrace", "raster", "volume"}
        assert len(small_corpus.records) == 2 * 3 * 8
        assert len(small_corpus.compositing_records) > 0

    def test_records_have_positive_times_and_features(self, small_corpus):
        for record in small_corpus.records:
            assert record.total_seconds > 0
            assert record.features.objects > 0
            assert record.features.active_pixels >= 0
            assert record.pixels == record.image_width * record.image_height

    def test_model_fits_reasonable(self, fitted_models):
        assert len(fitted_models) == 6
        r_squared = {key: model.r_squared for key, model in fitted_models.items()}
        # Most fits should explain the bulk of the variance (paper: 5 of 6 above 0.94).
        assert sum(value > 0.8 for value in r_squared.values()) >= 4
        for model in fitted_models.values():
            for value in model.coefficients.values():
                assert value >= 0.0

    def test_cross_validation_accuracy(self, small_corpus):
        summary = small_corpus.cross_validate("gpu1-k40m", "volume", k=3, seed=5)
        row = summary.accuracy_row()
        assert row["within_50"] >= 75.0
        assert row["average_percent"] < 60.0

    def test_compositing_model_fit(self, small_corpus):
        model = small_corpus.fit_model(COMPOSITING_ARCHITECTURE, "compositing")
        assert np.isfinite(model.r_squared)
        summary = small_corpus.cross_validate(COMPOSITING_ARCHITECTURE, "compositing", k=3, seed=5)
        assert len(summary.errors) == len(small_corpus.compositing_records)

    def test_select_filters(self, small_corpus):
        subset = small_corpus.select(architecture="cpu-host", technique="raster")
        assert all(r.architecture == "cpu-host" and r.technique == "raster" for r in subset)
        with pytest.raises(ValueError):
            small_corpus.fit_model("cpu-host", "unknown-technique")

    def test_gpu_records_use_paper_scale_configurations(self, small_corpus):
        for record in small_corpus.select("gpu1-k40m"):
            assert record.image_width >= 512
            assert record.cells_per_task >= 128
        for record in small_corpus.select("cpu-host"):
            assert record.image_width <= 160

    def test_compositing_sweep_trends(self, small_corpus):
        records = small_corpus.compositing_records
        by_pixels = {}
        for record in records:
            by_pixels.setdefault(record.num_tasks, []).append((record.pixels, record.seconds))
        # Within a task count, more pixels should generally cost more time.
        for entries in by_pixels.values():
            entries.sort()
            assert entries[-1][1] > entries[0][1] * 0.5


class TestMappingValidation:
    def test_mapping_predictions_conservative(self, small_corpus, fitted_models):
        """Mapped (upper-bound) inputs should predict at least ~the observed-input prediction."""
        checked = 0
        for technique in ("raster", "volume"):
            model = fitted_models[("cpu-host", technique)]
            for record in small_corpus.select("cpu-host", technique)[:4]:
                config = RenderingConfiguration(
                    technique=technique,
                    architecture="cpu-host",
                    num_tasks=record.num_tasks,
                    cells_per_task=record.cells_per_task,
                    image_width=record.image_width,
                    image_height=record.image_height,
                    samples_in_depth=200,
                )
                mapped = model.predict(map_configuration_to_features(config))
                observed = model.predict(record.features)
                assert mapped > 0.25 * observed
                checked += 1
        assert checked > 0


class TestCalibrationAndFeasibility:
    def test_titan_style_calibration(self):
        # Section 5.7: a small one-architecture sweep fits the model, and
        # Table 15's emitter predicts the 1024-task run through the mapping.
        corpus = run_study(
            StudyConfiguration(
                architectures=("gpu2-titan-k20",),
                techniques=("raytrace",),
                simulations=("cloverleaf",),
                samples_per_technique=8,
                seed=31,
            ),
            include_compositing=False,
        )
        suite = ModelSuite.fit_corpus(corpus)
        payload, _ = table15_large_scale_prediction(suite, corpus)
        (row,) = payload["rows"]
        assert (row["architecture"], row["technique"]) == ("gpu2-titan-k20", "raytrace")
        assert row["sample_points"] == 8
        config = RenderingConfiguration(
            "raytrace", "gpu2-titan-k20", LARGE_SCALE_TASKS, LARGE_SCALE_CELLS,
            LARGE_SCALE_IMAGE, LARGE_SCALE_IMAGE,
        )
        model = suite.entries[("gpu2-titan-k20", "raytrace")].model
        expected = model.predict(map_configuration_to_features(config), include_build=False)
        assert row["predicted_seconds"] == float(expected)
        assert row["predicted_seconds"] > 0
        assert abs(row["difference_percent"]) < 400.0

    def test_images_within_budget_monotone_in_image_size(self, fitted_models):
        points = images_within_budget(
            fitted_models, budget_seconds=60.0, image_sizes=np.array([512, 1024, 2048, 4096])
        )
        assert len(points) == len(fitted_models) * 4
        for (architecture, technique) in fitted_models:
            series = [p.images_in_budget for p in points if p.architecture == architecture and p.technique == technique]
            # Larger images never allow more renders (non-strict monotone decrease).
            assert all(a >= b for a, b in zip(series, series[1:]))
            assert all(p >= 0 for p in series)

    def test_raytracing_vs_rasterization_shape(self, fitted_models):
        heat = raytracing_vs_rasterization(
            fitted_models[("gpu1-k40m", "raytrace")],
            fitted_models[("gpu1-k40m", "raster")],
            "gpu1-k40m",
            image_sizes=np.array([384, 1024, 2048, 4096]),
            data_sizes=np.array([100, 300, 500]),
        )
        ratio = heat["ratio"]
        assert ratio.shape == (3, 4)
        assert np.all(ratio > 0)
        # Ray tracing gains as data grows (moving down a column).
        assert np.all(ratio[-1, :] >= ratio[0, :])
        # Rasterization gains as the image grows (moving right along a row).
        assert np.all(ratio[:, 0] >= ratio[:, -1])
        # The paper's headline: RT wins at small image / big data, rasterization
        # wins at large image / small data.
        assert ratio[-1, 0] > 1.0
        assert ratio[0, -1] < 1.0

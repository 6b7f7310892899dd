"""Golden paths of the Section 5.9 analyses: the feasibility curves.

The tests pin the Figure 14 budget arithmetic and the Figure 15 ratio grid to
hand-computed values via models with chosen coefficients.  The Section 5.7
calibration is Table 15's emitter over a small one-architecture corpus; its
tests live with the other emitters' in ``test_reporting.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.modeling import RenderingConfiguration, map_configuration_to_features
from repro.modeling.feasibility import images_within_budget, raytracing_vs_rasterization
from repro.modeling.models import PerformanceModel, make_model
from repro.modeling.regression import LinearRegressionResult


def _fit(coefficients, term_names, residual_std=0.01) -> LinearRegressionResult:
    return LinearRegressionResult(
        coefficients=np.asarray(coefficients, dtype=np.float64),
        r_squared=0.99,
        residual_std=residual_std,
        num_observations=12,
        term_names=term_names,
    )


def _hand_model(technique: str, **coefficients) -> PerformanceModel:
    """A model whose groups carry hand-chosen coefficients (``group name -> values``)."""
    model = make_model(technique)
    model.fits = {
        group.name: _fit(coefficients[group.name], group.term_names) for group in model.groups
    }
    return model


def _hand_raytracer(build=(1e-6, 0.01), frame=(0.0, 1e-6, 0.02)) -> PerformanceModel:
    return _hand_model("raytrace", build=build, frame=frame)


def _hand_volume(coefficients=(1e-9, 2e-8, 0.005)) -> PerformanceModel:
    return _hand_model("volume", fit=coefficients)


def _hand_raster(coefficients=(1e-7, 3e-7, 0.001)) -> PerformanceModel:
    return _hand_model("raster", fit=coefficients)


def _hand_compositing(coefficients=(1e-7, 1e-8, 0.002)) -> PerformanceModel:
    return _hand_model("compositing", fit=coefficients)


class TestImagesWithinBudget:
    """Figure 14: the budget curves, pinned to hand-computed arithmetic."""

    def test_raytracer_counts_match_hand_computation(self):
        model = _hand_raytracer()
        points = images_within_budget(
            {("archA", "raytrace"): model},
            budget_seconds=60.0,
            num_tasks=32,
            cells_per_task=200,
            image_sizes=np.array([1024, 2048]),
        )
        assert [p.image_size for p in points] == [1024, 2048]
        for point in points:
            config = RenderingConfiguration(
                technique="raytrace",
                architecture="archA",
                num_tasks=32,
                cells_per_task=200,
                image_width=point.image_size,
                image_height=point.image_size,
            )
            features = map_configuration_to_features(config)
            # frame = c3 * AP + c4 (the log-term coefficient is zero);
            # build = c0 * O + c1, paid once and subtracted from the budget.
            frame = 1e-6 * features.active_pixels + 0.02
            build = 1e-6 * features.objects + 0.01
            assert point.seconds_per_image == pytest.approx(frame, rel=1e-12)
            assert point.images_in_budget == int((60.0 - build) // frame)

    def test_counts_shrink_with_image_size_and_respect_build_amortization(self):
        model = _hand_raytracer()
        points = images_within_budget(
            {("archA", "raytrace"): model},
            budget_seconds=60.0,
            image_sizes=np.array([1024, 1536, 2048, 3072, 4096]),
        )
        counts = [p.images_in_budget for p in points]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > 0

    def test_build_larger_than_budget_yields_zero_images(self):
        model = _hand_raytracer(build=(1e-6, 120.0))  # 2-minute fixed build
        [point] = images_within_budget(
            {("archA", "raytrace"): model}, budget_seconds=60.0, image_sizes=np.array([1024])
        )
        assert point.images_in_budget == 0

    def test_compositing_model_adds_per_frame_cost(self):
        model = _hand_volume()
        without = images_within_budget(
            {("archA", "volume"): model}, budget_seconds=60.0, image_sizes=np.array([1024])
        )
        with_comp = images_within_budget(
            {("archA", "volume"): model},
            budget_seconds=60.0,
            image_sizes=np.array([1024]),
            compositing_model=_hand_compositing(),
        )
        assert with_comp[0].seconds_per_image > without[0].seconds_per_image
        assert with_comp[0].images_in_budget <= without[0].images_in_budget

    def test_every_fitted_model_contributes_a_curve(self):
        models = {
            ("archA", "raytrace"): _hand_raytracer(),
            ("archA", "volume"): _hand_volume(),
            ("archB", "raster"): _hand_raster(),
        }
        points = images_within_budget(models, image_sizes=np.array([1024, 2048]))
        assert len(points) == len(models) * 2
        assert {(p.architecture, p.technique) for p in points} == set(models)

    def test_budget_point_as_dict_round_trips_through_json(self):
        import json

        [point] = images_within_budget(
            {("archA", "volume"): _hand_volume()}, image_sizes=np.array([1024])
        )
        payload = json.loads(json.dumps(point.as_dict()))
        assert payload["architecture"] == "archA"
        assert payload["images_in_budget"] == point.images_in_budget


class TestRaytracingVsRasterization:
    """Figure 15: the ratio grid, pinned cell-by-cell to the two models."""

    def test_grid_shape_and_hand_computed_cell(self):
        raytracer = _hand_raytracer()
        raster = _hand_raster()
        image_sizes = np.array([512, 1024, 2048])
        data_sizes = np.array([100, 300])
        heat = raytracing_vs_rasterization(
            raytracer, raster, num_tasks=32, num_renderings=100,
            image_sizes=image_sizes, data_sizes=data_sizes,
        )
        assert heat["ratio"].shape == (2, 3)
        row, column = 1, 2  # 300^3 cells at 2048^2
        rt_config = RenderingConfiguration(
            technique="raytrace", architecture="archA", num_tasks=32,
            cells_per_task=300, image_width=2048, image_height=2048,
        )
        rast_config = RenderingConfiguration(
            technique="raster", architecture="archA", num_tasks=32,
            cells_per_task=300, image_width=2048, image_height=2048,
        )
        rt_features = map_configuration_to_features(rt_config)
        rast_features = map_configuration_to_features(rast_config)
        rt_total = (
            raytracer.predict(rt_features) - raytracer.predict(rt_features, include_build=False)
        ) + 100 * raytracer.predict(rt_features, include_build=False)
        rast_total = 100 * raster.predict(rast_features)
        assert heat["ratio"][row, column] == pytest.approx(rast_total / rt_total, rel=1e-12)

    def test_amortised_build_favors_ray_tracing_as_renderings_grow(self):
        raytracer = _hand_raytracer(build=(1e-5, 1.0))
        raster = _hand_raster()
        kwargs = dict(image_sizes=np.array([1024]), data_sizes=np.array([200]))
        few = raytracing_vs_rasterization(raytracer, raster, num_renderings=1, **kwargs)
        many = raytracing_vs_rasterization(raytracer, raster, num_renderings=1000, **kwargs)
        assert many["ratio"][0, 0] > few["ratio"][0, 0]

    def test_axes_are_returned_as_given(self):
        heat = raytracing_vs_rasterization(
            _hand_raytracer(), _hand_raster(),
            image_sizes=np.array([384, 768]), data_sizes=np.array([100, 200, 400]),
        )
        assert np.array_equal(heat["image_sizes"], [384, 768])
        assert np.array_equal(heat["data_sizes"], [100, 200, 400])

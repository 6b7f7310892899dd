"""Tests for the performance-modeling core: regression, CV, features, models, machines."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Camera
from repro.machines import ArchitectureSpec, KernelCostModel, get_architecture, list_architectures
from repro.machines.archspec import PHASE_RATES
from repro.machines.costmodel import synthesize_render_time
from repro.modeling import (
    RenderingConfiguration,
    feature_arrays,
    fit_linear_model,
    k_fold_cross_validation,
    make_model,
    map_configuration_batch,
    map_configuration_to_features,
)
from repro.modeling.feasibility import images_within_budget
from repro.modeling.features import DISTINCT_ROOT_MIN_ROWS, DISTINCT_ROOT_SLOTS_PER_ROW, task_shrink
from repro.modeling.models import MODEL_GROUPS, design_matrix
from repro.modeling.regression import relative_errors
from repro.rendering import make_renderer
from repro.rendering.result import PHASE_GROUPS, ObservedFeatures
from repro.reporting.suite import FittedModel, ModelSuite
from repro.runtime.decomposition import BlockDecomposition
from repro.serving.core import ServingError, canonical_config
from repro.techniques import TECHNIQUES, get_technique


def _synthetic_features(rng, count, technique="volume"):
    features = []
    for _ in range(count):
        f = ObservedFeatures(
            objects=int(rng.integers(1_000, 100_000)),
            active_pixels=int(rng.integers(1_000, 200_000)),
            cells_spanned=int(rng.integers(8, 64)),
            samples_per_ray=float(rng.uniform(10, 200)),
        )
        if technique == "raster":
            f.visible_objects = int(min(f.active_pixels, f.objects))
            f.pixels_per_triangle = float(rng.uniform(2, 20))
        features.append(f)
    return features


def _design(model, features, group="fit"):
    """One group's design matrix for a list of observations (or column arrays)."""
    arrays = features if isinstance(features, dict) else feature_arrays(features)
    return next(design_matrix(g, arrays) for g in model.groups if g.name == group)


class TestRegression:
    def test_exact_recovery_noise_free(self, rng):
        design = np.column_stack([rng.random(30), rng.random(30), np.ones(30)])
        truth = np.array([2.0, 0.5, 0.1])
        result = fit_linear_model(design, design @ truth, ("a", "b", "c"))
        assert np.allclose(result.coefficients, truth, atol=1e-10)
        assert result.r_squared == pytest.approx(1.0)
        assert result.residual_std == pytest.approx(0.0, abs=1e-10)
        assert result.named_coefficients()["a"] == pytest.approx(2.0)
        assert not np.any(result.coefficients < 0.0)  # the paper's red flag for an invalid model

    def test_nonnegative_constraint(self, rng):
        design = np.column_stack([rng.random(40), np.ones(40)])
        response = -design[:, 0] + 1.0  # the unconstrained slope would be negative
        constrained = fit_linear_model(design, response, nonnegative=True)
        assert np.all(constrained.coefficients >= 0.0)
        unconstrained = fit_linear_model(design, response)
        assert unconstrained.coefficients[0] < 0.0

    def test_prediction_and_validation(self, rng):
        design = np.column_stack([rng.random(20), np.ones(20)])
        result = fit_linear_model(design, design @ np.array([1.0, 2.0]))
        assert np.allclose(result.predict(design), design @ np.array([1.0, 2.0]))
        assert result.predict_terms([design[:, 0]]).tobytes() == result.predict(design).tobytes()
        with pytest.raises(ValueError):
            result.predict(np.ones((3, 5)))
        with pytest.raises(ValueError):
            result.predict_terms([design[:, 0], design[:, 0]])
        with pytest.raises(ValueError):
            fit_linear_model(design[:1], np.ones(1))
        with pytest.raises(ValueError):
            fit_linear_model(design, np.ones(7))

    def test_relative_errors_sign_convention(self):
        errors = relative_errors(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
        assert errors[0] == pytest.approx(0.5)   # under-prediction -> positive
        assert errors[1] == pytest.approx(-0.5)  # over-prediction -> negative

    @given(st.integers(10, 60), st.floats(0.0, 0.2))
    @settings(max_examples=20, deadline=None)
    def test_r_squared_degrades_with_noise(self, n, noise):
        rng = np.random.default_rng(42)
        design = np.column_stack([rng.random(n), np.ones(n)])
        clean = design @ np.array([3.0, 0.5])
        noisy = clean + noise * clean.std() * rng.standard_normal(n) if clean.std() > 0 else clean
        result = fit_linear_model(design, noisy)
        assert 0.0 <= result.r_squared <= 1.0 + 1e-12


class TestCrossValidation:
    def test_perfect_model_perfect_cv(self, rng):
        design = np.column_stack([rng.random(30), np.ones(30)])
        response = design @ np.array([1.5, 0.2])
        summary = k_fold_cross_validation(design, response, k=3, seed=1)
        assert summary.fraction_within(5.0) == pytest.approx(1.0)
        assert summary.average_error_percent < 1e-6
        assert len(summary.errors) == 30
        row = summary.accuracy_row()
        assert row["within_50"] == 100.0

    def test_accuracy_decreases_with_tolerance(self, rng):
        design = np.column_stack([rng.random(40), np.ones(40)])
        response = design @ np.array([1.0, 0.1]) + 0.05 * rng.standard_normal(40)
        summary = k_fold_cross_validation(design, response, k=4, seed=3)
        assert summary.fraction_within(50.0) >= summary.fraction_within(10.0) >= summary.fraction_within(1.0)

    def test_validation_errors(self, rng):
        design = np.ones((4, 1))
        with pytest.raises(ValueError):
            k_fold_cross_validation(design, np.ones(4), k=1)
        with pytest.raises(ValueError):
            k_fold_cross_validation(design, np.ones(4), k=3)

    def test_deterministic_given_seed(self, rng):
        design = np.column_stack([rng.random(30), np.ones(30)])
        response = design @ np.array([1.0, 0.5]) + 0.01 * rng.standard_normal(30)
        a = k_fold_cross_validation(design, response, seed=9)
        b = k_fold_cross_validation(design, response, seed=9)
        assert np.array_equal(a.errors, b.errors)


class TestFeaturesMapping:
    def test_surface_mapping_matches_paper_formulas(self):
        config = RenderingConfiguration("raytrace", "cpu-host", num_tasks=8, cells_per_task=200, image_width=1024, image_height=1024)
        features = map_configuration_to_features(config)
        assert features.objects == 12 * 200 * 200
        expected_ap = 0.55 * 1024 * 1024 / 2.0  # 8 tasks -> cube root 2
        assert features.active_pixels == pytest.approx(expected_ap, abs=1.0)
        assert features.cells_spanned == 200

    def test_raster_mapping_visible_objects(self):
        config = RenderingConfiguration("raster", "cpu-host", num_tasks=1, cells_per_task=50, image_width=256, image_height=256)
        features = map_configuration_to_features(config)
        assert features.visible_objects == min(features.active_pixels, features.objects)
        assert features.pixels_per_triangle == pytest.approx(4.0 * features.active_pixels / features.visible_objects)

    def test_volume_mapping_scales_with_samples(self):
        lo = map_configuration_to_features(
            RenderingConfiguration("volume", "cpu-host", 1, 64, 128, 128, samples_in_depth=500)
        )
        hi = map_configuration_to_features(
            RenderingConfiguration("volume", "cpu-host", 1, 64, 128, 128, samples_in_depth=1000)
        )
        assert hi.samples_per_ray == pytest.approx(2.0 * lo.samples_per_ray)
        assert lo.objects == 64**3

    def test_more_tasks_fewer_active_pixels(self):
        few = map_configuration_to_features(RenderingConfiguration("raytrace", "cpu-host", 1, 100, 512, 512))
        many = map_configuration_to_features(RenderingConfiguration("raytrace", "cpu-host", 64, 100, 512, 512))
        assert many.active_pixels < few.active_pixels

    def test_configuration_validation(self):
        rows = [
            ("nope", 1, 10, 64, 1000),
            ("raytrace", 0, 10, 64, 1000),
            ("raytrace", 1, 10, 0, 1000),
            ("raytrace", 1, 10, 64, 0),
            ("raytrace", float("nan"), 10, 64, 1000),
            ("raytrace", float("inf"), 10, 64, 1000),
            ("raytrace", 1, float("nan"), 64, 1000),
            ("raytrace", 1, float("inf"), 64, 1000),
            ("raytrace", 1, 10, float("nan"), 1000),
            ("raytrace", 1, 10, float("inf"), 1000),
            ("volume", 1, 10, 64, float("nan")),
            ("volume", 1, 10, 64, float("inf")),
        ]
        for technique, tasks, cells, width, samples in rows:
            with pytest.raises(ValueError):
                RenderingConfiguration(technique, "cpu-host", tasks, cells, width, 64, samples)


@st.composite
def _task_batches(draw):
    """Positive task counts with repeats, for both cube-root routes of ``task_shrink``.

    Batches on both sides of the per-row cut-over hold either whole counts the
    count-indexed table takes, optionally with one count too large for it or
    one fractional count, or up to 12 arbitrary counts from 1 to 1e5.
    """
    size = draw(
        st.one_of(
            st.integers(1, DISTINCT_ROOT_MIN_ROWS - 1),
            st.integers(DISTINCT_ROOT_MIN_ROWS, 3 * DISTINCT_ROOT_MIN_ROWS),
        )
    )
    cap = DISTINCT_ROOT_SLOTS_PER_ROW * size
    # numpy's array power is one ulp off scalar pow at 27 and 127.
    whole = st.one_of(st.sampled_from((27.0, 127.0)), st.integers(1, cap).map(float))
    mixed = st.one_of(st.integers(1, 100_000).map(float), st.floats(1.0, 1e5, allow_nan=False))
    pool, outlier = draw(
        st.one_of(
            st.tuples(
                st.lists(whole, min_size=1, max_size=12),
                st.one_of(
                    st.none(),
                    st.integers(cap + 1, 100_000).map(float),
                    st.floats(1.0, 1e5).filter(lambda value: not value.is_integer()),
                ),
            ),
            st.tuples(st.lists(mixed, min_size=1, max_size=12), st.none()),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tasks = np.asarray(pool)[rng.integers(0, len(pool), size)]
    if outlier is not None:
        tasks[rng.integers(0, size)] = outlier
    return tasks, rng


class TestBatchMapping:
    """The batch mapping is the scalar one, element for element and bit for bit."""

    @given(_task_batches())
    @settings(max_examples=40, deadline=None)
    def test_batch_columns_equal_the_per_element_mapping(self, batch):
        tasks, rng = batch
        roots = np.array([count ** (1.0 / 3.0) for count in tasks.tolist()])
        assert task_shrink(tasks).tobytes() == roots.tobytes()
        cells = rng.integers(1, 300, len(tasks))
        sizes = rng.integers(1, 2048, len(tasks))
        samples = rng.integers(1, 2000, len(tasks))
        for technique in TECHNIQUES:
            columns = map_configuration_batch(technique, tasks, cells, sizes, sizes, samples)
            rows = [
                map_configuration_batch(technique, tasks[i], cells[i], sizes[i], sizes[i], samples[i])
                for i in range(len(tasks))
            ]
            for name, column in columns.items():
                assert column.dtype == np.float64 and column.shape == tasks.shape
                expected = np.concatenate([row[name] for row in rows])
                assert column.tobytes() == expected.tobytes(), (technique, name)
            for i in range(0, len(tasks), 7):
                mapped = map_configuration_to_features(
                    RenderingConfiguration(
                        technique, "gpu1-k40m", float(tasks[i]), int(cells[i]),
                        int(sizes[i]), int(sizes[i]), int(samples[i]),
                    )
                )
                for name, column in columns.items():
                    assert column[i] == float(getattr(mapped, name)), (technique, name, tasks[i])


class TestTechniqueTable:
    """Every layer that reads the technique table, checked once per row."""

    @pytest.mark.parametrize("row", TECHNIQUES.values(), ids=list(TECHNIQUES))
    def test_every_layer_serves_the_row(self, row, rng):
        assert get_technique(row.name) is row

        # Rendering: a tiny decomposed block through the row's renderer.
        decomposition = BlockDecomposition(1, 4)
        grid = decomposition.block_grid_with_field(0, "scalar", lambda points: points[:, 0])
        camera = Camera.framing_bounds(decomposition.global_bounds, 12, 12)
        result = make_renderer(row.name, grid, "scalar", 8).render(camera)
        assert result.technique == row.name
        assert result.phase_seconds and set(result.phase_seconds) <= set(PHASE_GROUPS)
        assert (result.features.objects == 12 * 4 * 4) == row.surface

        # Section 5.8: the scalar mapping equals the batch one element for element.
        tasks, cells, sizes = [1, 8, 127], [6, 200, 33], [64, 1024, 333]
        batch = map_configuration_batch(row.name, tasks, cells, sizes, sizes, 500)
        for i in range(3):
            mapped = map_configuration_to_features(
                RenderingConfiguration(row.name, "gpu1-k40m", tasks[i], cells[i], sizes[i], sizes[i], 500)
            )
            for name, column in batch.items():
                assert column[i] == float(getattr(mapped, name)), name

        # Cost model: the phases the row's model groups have targets for.
        model = make_model(row.name)
        assert model.technique == row.name and model.groups is MODEL_GROUPS[row.family]
        phases = synthesize_render_time("gpu1-k40m", row.name, mapped, np.random.default_rng(0))
        assert all(seconds > 0.0 for seconds in phases.values())
        assert ("bvh_build" in phases) == ("build" in [group.name for group in model.groups])
        assert "bvh_build" not in synthesize_render_time(
            "gpu1-k40m", row.name, mapped, np.random.default_rng(0), include_build=False
        )

        # Model registry: fits, and round-trips through the models.json payload.
        features = _synthetic_features(rng, 12, row.name)
        model.fit(features, *[rng.uniform(0.01, 1.0, 12) for _ in model.groups])
        suite = ModelSuite()
        suite.entries[("gpu1-k40m", row.name)] = FittedModel("gpu1-k40m", row.name, model, 12)
        loaded = ModelSuite.from_payload(json.loads(json.dumps(suite.to_payload())))
        loaded_model = loaded.get("gpu1-k40m", row.name).model
        assert loaded_model.technique == row.name
        assert np.array_equal(loaded_model.predict(features), model.predict(features))

        # Serving: the wire name is a valid query.
        assert canonical_config({"architecture": "gpu1-k40m", "technique": row.name})[2] == row.name

    def test_an_unknown_name_is_one_error_everywhere(self):
        with pytest.raises(ValueError) as expected:
            get_technique("nope")
        message = str(expected.value)
        assert message == "unknown technique 'nope'; choose from " + ", ".join(TECHNIQUES)
        for call in (
            lambda: RenderingConfiguration("nope", "cpu-host", 1, 10, 64, 64),
            lambda: map_configuration_batch("nope", 1, 10, 64, 64),
            lambda: synthesize_render_time("gpu1-k40m", "nope", ObservedFeatures(), np.random.default_rng(0)),
            lambda: make_model("nope"),
        ):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message
        for unknown in ("nope", None, ["volume"]):  # a JSON request may carry any type
            with pytest.raises(ServingError) as served:
                canonical_config({"architecture": "a", "technique": unknown})
            assert served.value.code == "invalid-configuration"
            assert str(served.value).startswith(f"unknown technique {unknown!r}; choose from raytrace,")
            assert str(served.value).endswith("compositing")


class TestModels:
    def test_volume_model_recovers_planted_coefficients(self, rng):
        features = _synthetic_features(rng, 40)
        truth = np.array([3e-9, 5e-8, 1e-3])
        model = make_model("volume")
        times = _design(model, features) @ truth
        model.fit(features, times)
        assert model.r_squared > 0.999
        fitted = np.array(list(model.coefficients.values()))
        assert np.allclose(fitted, truth, rtol=1e-3, atol=1e-9)
        prediction = model.predict(features[0])
        assert prediction == pytest.approx(times[0], rel=1e-3)

    def test_raster_model_fit_and_predict(self, rng):
        features = _synthetic_features(rng, 30, technique="raster")
        model = make_model("raster")
        truth = np.array([2e-8, 4e-9, 5e-4])
        times = _design(model, features) @ truth
        model.fit(features, times + 0.01 * times.std() * rng.standard_normal(len(times)))
        assert model.r_squared > 0.95
        assert np.all(np.array(list(model.coefficients.values())) >= 0.0)

    def test_raytracing_model_build_and_frame(self, rng):
        features = _synthetic_features(rng, 30)
        model = make_model("raytrace")
        build_truth = np.array([5e-8, 1e-3])
        frame_truth = np.array([2e-9, 3e-8, 2e-3])
        build_times = _design(model, features, "build") @ build_truth
        frame_times = _design(model, features, "frame") @ frame_truth
        model.fit(features, build_times, frame_times)
        total = model.predict(features[0])
        frame_only = model.predict(features[0], include_build=False)
        assert total > frame_only
        assert total == pytest.approx(build_times[0] + frame_times[0], rel=1e-3)
        assert set(model.coefficients) == {
            "c0_objects", "c1_intercept", "c2_ap_log_o", "c3_ap", "c4_intercept",
        }

    def test_compositing_and_total_models(self, rng):
        comp_arrays = {
            "average_active_pixels": rng.uniform(1e3, 1e5, 25),
            "pixels": rng.integers(1e4, 1e6, 25).astype(np.float64),
        }
        comp = make_model("compositing")
        truth = np.array([2e-8, 5e-8, 1e-3])
        times = _design(comp, comp_arrays) @ truth
        comp.fit(comp_arrays, times)
        assert comp.r_squared > 0.999

        volume = make_model("volume")
        vol_features = _synthetic_features(rng, 20)
        volume.fit(vol_features, _design(volume, vol_features) @ np.array([1e-9, 1e-8, 1e-3]))
        # Eq. 5.4 (local render + compositing) lives in the feasibility analysis.
        models = {("cpu-host", "volume"): volume}
        kwargs = dict(num_tasks=8, cells_per_task=32, image_sizes=np.array([256]))
        (local,) = images_within_budget(models, **kwargs)
        (total,) = images_within_budget(models, compositing_model=comp, **kwargs)
        mapped = map_configuration_to_features(
            RenderingConfiguration("volume", "cpu-host", 8, 32, 256, 256)
        )
        assert local.seconds_per_image == volume.predict(mapped)
        composite = comp.predict(
            {"average_active_pixels": [float(mapped.active_pixels)], "pixels": [256.0 * 256.0]}
        )[0]
        assert total.seconds_per_image == local.seconds_per_image + composite

    def test_unfit_model_raises(self):
        with pytest.raises(RuntimeError):
            make_model("volume").predict(ObservedFeatures())
        with pytest.raises(RuntimeError):
            make_model("raytrace").predict(ObservedFeatures())

    def test_make_model_factory(self):
        for technique, groups in MODEL_GROUPS.items():
            model = make_model(technique)
            assert model.technique == technique and model.groups is groups and model.fits == {}
        assert [group.name for group in make_model("raytrace").groups] == ["build", "frame"]
        assert make_model("volume").groups is make_model("volume_unstructured").groups
        with pytest.raises(ValueError):
            make_model("nope")


class TestMachines:
    def test_registry_contains_study_devices(self):
        names = list_architectures()
        for expected in ("cpu1-surface", "gpu1-k40m", "gpu2-titan-k20", "mic-phi-ispc"):
            assert expected in names
        assert get_architecture("gpu1-k40m").kind == "gpu"
        with pytest.raises(ValueError):
            get_architecture("nope")

    @pytest.mark.parametrize("rate", PHASE_RATES.values())
    def test_spec_validation(self, rate):
        rates = dict.fromkeys(PHASE_RATES.values(), 1.0)
        ArchitectureSpec("x", "cpu", **rates)
        with pytest.raises(ValueError, match=f"^{rate} must be positive$"):
            ArchitectureSpec("x", "cpu", **{**rates, rate: 0.0})

    def test_gpu_faster_than_cpu_for_same_features(self):
        features = ObservedFeatures(objects=50_000, active_pixels=500_000, samples_per_ray=100, cells_spanned=128)
        cpu = KernelCostModel("cpu1-surface", seed=1).total("volume", features)
        gpu = KernelCostModel("gpu1-k40m", seed=1).total("volume", features)
        assert gpu < cpu

    def test_ispc_backend_faster_than_openmp_on_phi(self):
        features = ObservedFeatures(objects=100_000, active_pixels=1_000_000)
        openmp = KernelCostModel("mic-phi-openmp", seed=2).total("raytrace", features, include_build=False)
        ispc = KernelCostModel("mic-phi-ispc", seed=2).total("raytrace", features, include_build=False)
        assert ispc < openmp
        assert openmp / ispc > 3.0  # the paper reports 5x-9x speedups

    def test_synthesized_time_scales_with_work(self):
        small = ObservedFeatures(objects=1_000, active_pixels=10_000)
        large = ObservedFeatures(objects=1_000, active_pixels=1_000_000)
        spec = get_architecture("gpu1-k40m")
        rng = np.random.default_rng(0)
        t_small = sum(synthesize_render_time(spec, "raytrace", small, rng).values())
        t_large = sum(synthesize_render_time(spec, "raytrace", large, rng).values())
        assert t_large > t_small

    def test_unknown_technique(self):
        with pytest.raises(ValueError):
            synthesize_render_time("gpu1-k40m", "nope", ObservedFeatures(), np.random.default_rng(0))

    def test_frames_per_second_helper(self):
        features = ObservedFeatures(objects=10_000, active_pixels=100_000)
        fps = KernelCostModel("gpu-titan-black", seed=3).frames_per_second("raytrace", features)
        assert fps > 0

"""The reporting subsystem: suite registry, artifacts, predictor, CLI."""

from __future__ import annotations

import dataclasses
import json
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compositing import SCENARIOS
from repro.compositing.algorithms import ALGORITHMS
from repro.dpp import list_devices
from repro.machines import list_architectures
from repro.modeling.features import (
    RenderingConfiguration,
    feature_arrays,
    map_configuration_batch,
    map_configuration_to_features,
)
from repro.modeling.models import MODEL_GROUPS, design_matrix, make_model
from repro.modeling.regression import LinearRegressionResult
from repro.modeling.study import StudyConfiguration, StudyCorpus
from repro.reporting import ModelSuite, Predictor, generate_report
from repro.reporting.suite import MODELS_SCHEMA_VERSION, FittedModel, _coefficient_warnings
from repro.reporting.tables import (
    LARGE_SCALE_CELLS,
    LARGE_SCALE_IMAGE,
    LARGE_SCALE_TASKS,
    table15_large_scale_prediction,
)
from repro.simulations.fields import SIMULATION_FIELDS
from repro.study import cli as study_cli
from repro.study import run_study
from repro.study.corpus_io import corpus_digest, save_corpus
from repro.study.experiments import _synthetic_run_images
from repro.techniques import TECHNIQUES, ObservedFeatures


@pytest.fixture(scope="module")
def corpus() -> StudyCorpus:
    """A synthesized-only corpus: large enough to cross-validate, instant to build."""
    config = StudyConfiguration(
        architectures=("gpu1-k40m",),
        techniques=("raytrace", "raster", "volume"),
        simulations=("kripke",),
        task_counts=(1, 4),
        samples_per_technique=8,
        compositing_task_counts=(2, 4),
        compositing_pixel_sizes=(32, 48, 64),
        seed=99,
    )
    return run_study(config)


@pytest.fixture(scope="module")
def suite(corpus) -> ModelSuite:
    return ModelSuite.fit_corpus(corpus)


class TestModelSuite:
    def test_fits_every_slice_plus_compositing(self, corpus, suite):
        assert sorted(suite.entries) == [
            ("gpu1-k40m", "raster"),
            ("gpu1-k40m", "raytrace"),
            ("gpu1-k40m", "volume"),
        ]
        assert suite.compositing is not None
        assert suite.compositing.num_rows == len(corpus.compositing_records)
        assert not suite.failures
        for entry in suite.entries.values():
            assert entry.model.r_squared > 0.5
            assert entry.crossval_accuracy is not None
            assert entry.crossval_accuracy["within_50"] >= 0.0

    def test_corpus_cross_validate_delegate_matches_the_suite(self, corpus, suite):
        # benchmarks/e2e/probes.py cross-validates through the corpus: it must
        # score exactly what the suite's one fitting path scores, slice by slice.
        entries = suite.all_entries()
        assert len(entries) == len(list(corpus.slices())) + 1
        assert entries[-1].technique == "compositing"
        for entry in entries:
            summary = corpus.cross_validate(entry.architecture, entry.technique, k=3, seed=suite.seed)
            assert np.array_equal(summary.errors, entry.crossval.errors), entry.key
            assert np.array_equal(summary.predictions, entry.crossval.predictions), entry.key

    def test_diagnostics_report_every_fit_group(self, suite):
        raytrace = suite.entries[("gpu1-k40m", "raytrace")]
        diagnostics = raytrace.diagnostics()
        assert set(diagnostics) == {"build", "frame"}
        for group in diagnostics.values():
            assert set(group) >= {"r_squared", "residual_std", "coefficients", "negative_terms"}

    def test_negative_coefficients_become_structured_warnings(self):
        model = make_model("compositing")
        model.fits["fit"] = LinearRegressionResult(
            coefficients=np.array([1e-6, 2e-9, -0.25]),
            r_squared=0.9,
            residual_std=0.01,
            num_observations=10,
            term_names=model.groups[0].term_names,
        )
        entry = FittedModel("-", "compositing", model, 10)
        warnings = _coefficient_warnings(entry)
        assert warnings == [
            {
                "kind": "negative_coefficient",
                "architecture": "-",
                "technique": "compositing",
                "group": "fit",
                "term": "c2_intercept",
                "value": -0.25,
            }
        ]

    def test_degenerate_slices_become_failures_not_exceptions(self, corpus):
        tiny = StudyCorpus(records=corpus.records[:2], compositing_records=corpus.compositing_records[:2])
        suite = ModelSuite.fit_corpus(tiny)
        assert suite.is_empty()
        assert {f["technique"] for f in suite.failures} >= {"compositing"}
        for failure in suite.failures:
            assert failure["reason"] == "degenerate-fit"
            assert failure["message"]

    def test_unknown_technique_is_a_failure_not_a_volume_model(self, corpus):
        # A corpus file whose rows carry a technique the registry does not
        # know (typo, newer schema) used to be fitted as a volume model.
        mystery = [
            dataclasses.replace(row, technique="mystery")
            for row in corpus.select("gpu1-k40m", "volume")
        ]
        mixed = StudyCorpus(records=corpus.select("gpu1-k40m", "raster") + mystery)
        suite = ModelSuite.fit_corpus(mixed)
        assert sorted(suite.entries) == [("gpu1-k40m", "raster")]
        [failure] = suite.failures
        assert (failure["architecture"], failure["technique"]) == ("gpu1-k40m", "mystery")
        assert failure["error_type"] == "ValueError"
        assert failure["message"].startswith("unknown technique 'mystery'")
        assert failure["num_rows"] == len(mystery)

    def test_a_non_finite_time_makes_its_slice_a_failure(self, corpus):
        # NaN on a non-negative renderer fit, inf on the plain-OLS compositing
        # fit: both slices are recorded as ValueError failures, the rest fit.
        raster = corpus.select("gpu1-k40m", "raster")
        raster[0] = dataclasses.replace(raster[0], frame_seconds=float("nan"))
        composites = list(corpus.compositing_records)
        composites[0] = dataclasses.replace(composites[0], seconds=float("inf"))
        mixed = StudyCorpus(
            records=corpus.select("gpu1-k40m", "volume") + raster, compositing_records=composites
        )
        suite = ModelSuite.fit_corpus(mixed)
        assert sorted(suite.entries) == [("gpu1-k40m", "volume")]
        assert suite.compositing is None
        assert sorted(failure["technique"] for failure in suite.failures) == ["compositing", "raster"]
        for failure in suite.failures:
            assert failure["error_type"] == "ValueError"
            assert "must be finite" in failure["message"]

    def test_a_slice_spanning_two_dpp_devices_is_a_failure(self):
        # One host slice timed on two back-ends used to be fitted as one
        # model over all its rows, with no failure and no warning.
        config = StudyConfiguration(
            architectures=("cpu-host",),
            techniques=("raster",),
            dpp_devices=("vectorized", "serial"),
            samples_per_technique=4,
            seed=1,
        )
        corpus = run_study(config)
        assert {row.dpp_device for row in corpus.records} == {"vectorized", "serial"}
        suite = ModelSuite.fit_corpus(corpus)
        assert ("cpu-host", "raster") not in suite.entries
        [failure] = [f for f in suite.failures if f["technique"] == "raster"]
        assert failure["reason"] == "mixed-devices"
        assert failure["architecture"] == "cpu-host"
        assert failure["num_rows"] == len(corpus.records) == 8
        assert "serial, vectorized" in failure["message"]
        one_device = StudyCorpus(records=corpus.select(dpp_device="serial"))
        assert not [f for f in ModelSuite.fit_corpus(one_device).failures if f["reason"] == "mixed-devices"]

    def test_get_unknown_key_lists_available(self, suite):
        with pytest.raises(KeyError, match="gpu1-k40m/raytrace"):
            suite.get("nope", "raytrace")

    def test_crossval_skipped_is_recorded(self, corpus):
        small = StudyCorpus(records=corpus.select("gpu1-k40m", "volume")[:4])
        suite = ModelSuite.fit_corpus(small)
        entry = suite.entries[("gpu1-k40m", "volume")]
        assert entry.crossval_accuracy is None
        assert "6 observations" in entry.crossval_skipped
        assert any(w["kind"] == "crossval_skipped" for w in entry.warnings)


class TestSerialization:
    def test_models_json_round_trip_is_exact(self, suite, tmp_path):
        path = suite.save(tmp_path / "models.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == MODELS_SCHEMA_VERSION
        loaded = ModelSuite.load(path)
        assert sorted(loaded.entries) == sorted(suite.entries)
        for key, entry in suite.entries.items():
            for group, fit in entry.model.fits.items():
                loaded_fit = loaded.entries[key].model.fits[group]
                assert np.array_equal(loaded_fit.coefficients, fit.coefficients)
                assert loaded_fit.residual_std == fit.residual_std
                assert loaded_fit.term_names == fit.term_names
        assert loaded.compositing is not None
        assert loaded.entries[("gpu1-k40m", "raytrace")].crossval_accuracy is not None

    def test_unknown_schema_is_rejected(self, suite, tmp_path):
        payload = suite.to_payload()
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            ModelSuite.from_payload(payload)


class TestPredictor:
    def test_in_sample_round_trip_reproduces_predictions(self, corpus, suite, tmp_path):
        """The acceptance criterion: models.json -> Predictor == in-memory model."""
        predictor = Predictor.load(suite.save(tmp_path / "models.json"))
        for (architecture, technique), entry in suite.entries.items():
            rows = corpus.select(architecture, technique)
            features = [row.features for row in rows]
            expected = entry.model.predict(features)
            got = predictor.predict_features(architecture, technique, features).seconds
            assert np.max(np.abs(expected - got)) <= 1e-10

    def test_configuration_batch_matches_scalar_path(self, suite):
        predictor = Predictor(suite)
        sizes = np.array([512, 1024, 2048, 2880])
        batch = predictor.predict_configurations(
            "gpu1-k40m", "raytrace", num_tasks=32, cells_per_task=200, image_width=sizes, image_height=sizes
        )
        assert len(batch) == len(sizes)
        model = suite.entries[("gpu1-k40m", "raytrace")].model
        for index, size in enumerate(sizes):
            config = RenderingConfiguration(
                technique="raytrace",
                architecture="gpu1-k40m",
                num_tasks=32,
                cells_per_task=200,
                image_width=int(size),
                image_height=int(size),
            )
            scalar = model.predict(map_configuration_to_features(config))
            assert abs(batch.seconds[index] - scalar) <= 1e-12

    def test_intervals_bound_the_prediction(self, suite):
        predictor = Predictor(suite)
        batch = predictor.predict_configurations(
            "gpu1-k40m", "volume", num_tasks=8, cells_per_task=np.arange(50, 350, 50),
            image_width=1024, image_height=1024, sigmas=3.0,
        )
        assert np.all(batch.lower <= batch.seconds)
        assert np.all(batch.seconds <= batch.upper)
        assert np.all(batch.lower >= 0.0)
        assert np.allclose(batch.upper - batch.seconds, 3.0 * batch.residual_std)
        assert batch.sigmas == 3.0

    def test_raytrace_interval_widens_with_build(self, suite):
        predictor = Predictor(suite)
        with_build = predictor.predict_configurations(
            "gpu1-k40m", "raytrace", 32, 200, 1024, 1024, include_build=True
        )
        without = predictor.predict_configurations(
            "gpu1-k40m", "raytrace", 32, 200, 1024, 1024, include_build=False
        )
        assert with_build.seconds[0] > without.seconds[0]
        assert with_build.residual_std >= without.residual_std

    def test_compositing_predictions(self, suite):
        predictor = Predictor(suite)
        batch = predictor.predict_compositing(np.array([500.0, 1500.0]), np.array([4096, 16384]))
        assert len(batch) == 2
        assert np.all(np.isfinite(batch.seconds))

    def test_as_dict_is_json_ready(self, suite):
        predictor = Predictor(suite)
        batch = predictor.predict_compositing(800.0, 4096)
        payload = batch.as_dict()
        json.dumps(payload)
        assert payload["sigmas"] == 2.0


class TestBatchMapping:
    def test_batch_mapping_matches_scalar_exactly(self):
        rng = np.random.default_rng(7)
        for technique in ("raytrace", "raster", "volume", "volume_unstructured"):
            tasks = rng.integers(1, 1500, 64)
            cells = rng.integers(1, 400, 64)
            width = rng.integers(16, 4096, 64)
            height = rng.integers(16, 4096, 64)
            samples = rng.integers(10, 1500, 64)
            batch = map_configuration_batch(technique, tasks, cells, width, height, samples)
            assert list(batch) == [item.name for item in dataclasses.fields(ObservedFeatures)]
            for i in range(64):
                scalar = map_configuration_to_features(
                    RenderingConfiguration(
                        technique=technique,
                        architecture="x",
                        num_tasks=int(tasks[i]),
                        cells_per_task=int(cells[i]),
                        image_width=int(width[i]),
                        image_height=int(height[i]),
                        samples_in_depth=int(samples[i]),
                    )
                )
                for name, declared in typing.get_type_hints(ObservedFeatures).items():
                    value = getattr(scalar, name)
                    assert type(value) is declared, (technique, name, type(value))
                    assert batch[name][i] == float(value), (technique, name)

    def test_every_active_pixel_reader_follows_the_fill_fraction(self, suite, monkeypatch):
        # 0.25 of the pixels over 8 tasks (cube root exactly 2): an eighth of the image.
        monkeypatch.setattr("repro.modeling.features.CAMERA_FILL_FRACTION", 0.25)
        config = RenderingConfiguration("raster", "gpu1-k40m", 8, 100, 512, 512)
        assert map_configuration_to_features(config).active_pixels == 512 * 512 // 8

        predictor = Predictor(suite)
        scored = []
        predict_compositing = predictor.predict_compositing

        def spy(active, pixels, sigmas):
            scored.append(active.tolist())
            return predict_compositing(active, pixels, sigmas)

        monkeypatch.setattr(predictor, "predict_compositing", spy)
        spec = {"kind": "compositing", "num_tasks": 8, "pixel_size": 64}
        assert np.isfinite(predictor.interval_widths_for_specs([spec])).all()
        assert scored == [[64 * 64 / 8]]

        images = _synthetic_run_images(8, 64, 64, np.random.default_rng(1))
        side = int(np.sqrt(64 * 64 // 8))
        assert [len(image.pixels) for image in images] == [side * side] * 8

    def test_batch_mapping_validates_inputs(self):
        with pytest.raises(ValueError, match="unknown technique"):
            map_configuration_batch("nope", 1, 1, 64, 64)
        with pytest.raises(ValueError, match="positive"):
            map_configuration_batch("raytrace", 0, 10, 64, 64)
        good = [np.full(200, value) for value in (8.0, 10.0, 64.0, 64.0, 1000.0)]
        for column in range(5):
            for bad in (np.nan, np.inf, -np.inf, 0.0):
                inputs = [values.copy() for values in good]
                inputs[column][150] = bad
                with pytest.raises(ValueError, match="positive"):
                    map_configuration_batch("raytrace", *inputs)
                with pytest.raises(ValueError, match="positive"):
                    map_configuration_batch("raytrace", *[values[150] for values in inputs])
        empty = map_configuration_batch("raytrace", [], [], [], [], [])
        assert all(len(values) == 0 for values in empty.values())



def _volume_rows(f: dict) -> list[float]:  # Eq. 5.3: c0 * (AP * CS) + c1 * (AP * SPR) + c2
    return [f["active_pixels"] * f["cells_spanned"], f["active_pixels"] * f["samples_per_ray"], 1.0]


#: The paper's equations written out for ONE observation ``f`` (a dict of
#: floats), one list of terms per group -- the oracle the registry's
#: vectorized design matrices are checked against.
PAPER_EQUATIONS = {
    "raytrace": {
        # Eq. 5.1: (c0 * O + c1) + (c2 * (AP * log2(O)) + c3 * AP + c4)
        "build": lambda f: [f["objects"], 1.0],
        "frame": lambda f: [
            f["active_pixels"] * np.log2(max(f["objects"], 2.0)),  # log2 of an empty scene is clamped
            f["active_pixels"],
            1.0,
        ],
    },
    # Eq. 5.2: c0 * O + c1 * (VO * PPT) + c2
    "raster": {"fit": lambda f: [f["objects"], f["visible_objects"] * f["pixels_per_triangle"], 1.0]},
    "volume": {"fit": _volume_rows},
    # Eq. 5.5: c0 * avg(AP) + c1 * Pixels + c2
    "compositing": {"fit": lambda f: [f["average_active_pixels"], f["pixels"], 1.0]},
}

RENDER_COLUMNS = (
    "objects", "active_pixels", "visible_objects", "pixels_per_triangle", "samples_per_ray", "cells_spanned",
)
COMPOSITING_COLUMNS = ("average_active_pixels", "pixels")


def _assert_groups_match_paper(arrays: dict[str, np.ndarray], techniques) -> None:
    count = len(next(iter(arrays.values())))
    observations = [{name: float(column[i]) for name, column in arrays.items()} for i in range(count)]
    for technique in techniques:
        for group in MODEL_GROUPS[technique]:
            expected = np.array([PAPER_EQUATIONS[technique][group.name](f) for f in observations])
            assert expected.shape == (count, len(group.term_names))
            assert np.array_equal(design_matrix(group, arrays), expected), (technique, group.name)


class TestTermGroups:
    def test_term_groups_match_the_paper_equations(self, corpus):
        render = [t for t in MODEL_GROUPS if t != "compositing"]
        for _, _, rows in corpus.slices():
            _assert_groups_match_paper(feature_arrays([row.features for row in rows]), render)
        records = corpus.compositing_records
        compositing = {
            "average_active_pixels": np.array([r.average_active_pixels for r in records], dtype=np.float64),
            "pixels": np.array([r.pixels for r in records], dtype=np.float64),
        }
        _assert_groups_match_paper(compositing, ["compositing"])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.floats(0.0, 1e9)] * len(RENDER_COLUMNS + COMPOSITING_COLUMNS)),
            min_size=1,
            max_size=12,
        )
    )
    def test_term_groups_match_the_paper_equations_on_generated_columns(self, rows):
        columns = np.array(rows, dtype=np.float64).T
        arrays = dict(zip(RENDER_COLUMNS + COMPOSITING_COLUMNS, columns))
        _assert_groups_match_paper(arrays, MODEL_GROUPS)

    @pytest.mark.parametrize("technique", sorted([*TECHNIQUES, "compositing"]))
    def test_payload_round_trip_and_batch_invariance(self, technique):
        """fit -> models.json payload -> loaded model predicts bit-equal, whole or split."""
        rng = np.random.default_rng(515)
        count = 24
        arrays = {name: rng.uniform(1.0, 1e5, count) for name in RENDER_COLUMNS + COMPOSITING_COLUMNS}
        model = make_model(technique)
        model.fit(arrays, *[rng.uniform(0.01, 2.0, count) for _ in model.groups])
        entry = FittedModel("arch", technique, model, count)
        suite = ModelSuite()
        if technique == "compositing":
            suite.compositing = entry
        else:
            suite.entries[entry.key] = entry
        loaded = ModelSuite.from_payload(json.loads(json.dumps(suite.to_payload())))
        loaded_model = loaded.get("arch", technique).model
        assert list(loaded_model.fits) == [group.name for group in model.groups]
        for include_build in (True, False):
            whole = model.predict(arrays, include_build)
            assert np.array_equal(loaded_model.predict(arrays, include_build), whole)
            for split in (1, 17):
                parts = [
                    loaded_model.predict({n: c[piece] for n, c in arrays.items()}, include_build)
                    for piece in (slice(None, split), slice(split, None))
                ]
                assert np.array_equal(np.concatenate(parts), whole)


class TestGenerateReport:
    EXPECTED = (
        ["models.json", "report.json", "report.md"]
        + [f"tables/table{n}_{slug}.{ext}" for n, slug in [
            (12, "model_r2"), (13, "crossval_accuracy"), (14, "compositing_accuracy"),
            (15, "large_scale_prediction"), (16, "mapping_validation"), (17, "coefficients"),
        ] for ext in ("json", "md")]
        + [f"figures/fig{n}_{slug}.{ext}" for n, slug in [
            (11, "crossval_error"), (12, "compositing_histogram"), (13, "compositing_crossval"),
            (14, "images_per_budget"), (15, "rt_vs_raster"),
        ] for ext in ("json", "md")]
    )

    def test_emits_every_artifact(self, corpus, tmp_path):
        result = generate_report(corpus, tmp_path / "report")
        emitted = {str(path.relative_to(result.out_dir)) for path in result.paths}
        assert emitted == set(self.EXPECTED)
        assert result.manifest["corpus"]["digest"] == corpus_digest(corpus)
        assert result.manifest["fitted"] == [
            ["gpu1-k40m", "raster"], ["gpu1-k40m", "raytrace"], ["gpu1-k40m", "volume"],
        ]

    def test_regeneration_is_byte_identical(self, corpus, tmp_path):
        first = generate_report(corpus, tmp_path / "one")
        second = generate_report(corpus, tmp_path / "two")
        for path in first.paths:
            relative = path.relative_to(first.out_dir)
            assert path.read_bytes() == (second.out_dir / relative).read_bytes(), relative

    def test_records_carry_their_sampling_depth(self, corpus, tmp_path):
        # Synthetic rows record the full-scale depth; the value survives IO,
        # so Table 16 maps with the depth the experiment actually used.
        from repro.study.corpus_io import load_corpus

        assert all(r.samples_in_depth == 1000 for r in corpus.records)
        reloaded = load_corpus(save_corpus(corpus, tmp_path / "roundtrip.json"))
        assert [r.samples_in_depth for r in reloaded.records] == [
            r.samples_in_depth for r in corpus.records
        ]

    def test_table_payloads_are_machine_checkable(self, corpus, tmp_path):
        result = generate_report(corpus, tmp_path / "report")
        tables = {
            payload["table"]: payload
            for payload in (
                json.loads(path.read_text())
                for path in result.paths
                if path.suffix == ".json" and path.parent.name == "tables"
            )
        }
        assert sorted(tables) == [12, 13, 14, 15, 16, 17]
        assert all(row["r_squared"] <= 1.0 for row in tables[12]["rows"])
        accuracy = tables[13]["rows"][0]["accuracy"]
        assert accuracy is not None and 0.0 <= accuracy["within_50"] <= 100.0
        assert tables[14]["available"] is True
        assert all(abs(r["difference_percent"]) < 1e6 for r in tables[15]["rows"])
        assert tables[16]["rows"] == []  # synthesized-only corpus has no host rows
        for row in tables[17]["rows"]:
            assert row["coefficients"]

    def test_figure_payloads(self, corpus, tmp_path):
        result = generate_report(corpus, tmp_path / "report")
        figures = {
            payload["figure"]: payload
            for payload in (
                json.loads(path.read_text())
                for path in result.paths
                if path.suffix == ".json" and path.parent.name == "figures"
            )
        }
        assert sorted(figures) == [11, 12, 13, 14, 15]
        series = figures[11]["series"]
        assert all(s["available"] for s in series)
        assert len(figures[12]["rows"]) == len(corpus.compositing_records)
        assert figures[13]["available"] is True
        points = figures[14]["points"]
        assert len(points) == 3 * 5  # three models x five image sizes
        for key in {(p["architecture"], p["technique"]) for p in points}:
            counts = [p["images_in_budget"] for p in points if (p["architecture"], p["technique"]) == key]
            assert all(a >= b for a, b in zip(counts, counts[1:]))
        grids = figures[15]["grids"]
        assert len(grids) == 1 and grids[0]["architecture"] == "gpu1-k40m"
        assert len(grids[0]["ratio"]) == len(grids[0]["data_sizes"])

    def test_report_markdown_contains_all_sections(self, corpus, tmp_path):
        result = generate_report(corpus, tmp_path / "report")
        markdown = result.markdown_path.read_text()
        for number in range(12, 18):
            assert f"### Table {number}:" in markdown
        for number in range(11, 16):
            assert f"### Figure {number}:" in markdown
        assert corpus_digest(corpus) in markdown


class TestTable15LargeScalePrediction:
    """The Section 5.7 workflow: a small corpus fits the models, the mapping predicts at scale."""

    @staticmethod
    def _rows(suite, corpus) -> dict[tuple[str, str], dict]:
        payload, _ = table15_large_scale_prediction(suite, corpus)
        return {(row["architecture"], row["technique"]): row for row in payload["rows"]}

    def test_prediction_goes_through_the_mapping(self, corpus, suite):
        rows = self._rows(suite, corpus)
        assert sorted(rows) == sorted(suite.entries)
        for (architecture, technique), row in rows.items():
            config = RenderingConfiguration(
                technique=technique,
                architecture=architecture,
                num_tasks=LARGE_SCALE_TASKS,
                cells_per_task=LARGE_SCALE_CELLS,
                image_width=LARGE_SCALE_IMAGE,
                image_height=LARGE_SCALE_IMAGE,
            )
            model = suite.entries[(architecture, technique)].model
            expected = model.predict(map_configuration_to_features(config), include_build=False)
            assert row["predicted_seconds"] == float(expected)
            assert row["predicted_seconds"] > 0.0

    def test_difference_is_relative_to_the_actual_time(self, corpus, suite):
        for row in self._rows(suite, corpus).values():
            actual, predicted = row["actual_seconds"], row["predicted_seconds"]
            assert actual > 0.0
            assert row["difference_percent"] == 100.0 * (predicted - actual) / max(actual, 1e-12)

    def test_sample_points_count_the_slice_rows(self, corpus, suite):
        for (architecture, technique), row in self._rows(suite, corpus).items():
            assert row["sample_points"] == len(corpus.select(architecture, technique))

    def test_host_slices_are_excluded(self, corpus, suite):
        # No oracle exists for real hardware at 1024 tasks: a host entry gets no row.
        raster = suite.entries[("gpu1-k40m", "raster")]
        host = FittedModel("cpu-host", "raster", raster.model, raster.num_rows)
        with_host = dataclasses.replace(suite, entries={**suite.entries, host.key: host})
        assert self._rows(with_host, corpus) == self._rows(suite, corpus)

    def test_each_row_has_its_own_oracle(self, corpus, suite):
        # A shared noise stream would make a row's "actual" depend on the rows
        # emitted before it; one technique alone must read what it reads among three.
        together = self._rows(suite, corpus)
        assert len(together) == 3
        for key, entry in suite.entries.items():
            alone = self._rows(dataclasses.replace(suite, entries={key: entry}), corpus)
            assert alone[key]["actual_seconds"] == together[key]["actual_seconds"]


class TestReportingCLI:
    def _save(self, corpus, tmp_path, name="corpus.json") -> str:
        return str(save_corpus(corpus, tmp_path / name))

    def test_report_subcommand_round_trips(self, corpus, tmp_path, capsys):
        path = self._save(corpus, tmp_path)
        out_dir = tmp_path / "report"
        assert study_cli.main(["report", path, "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "models.json").is_file()
        assert (out_dir / "report.md").is_file()
        assert "renderer models + compositing" in capsys.readouterr().out
        # Second invocation on the same corpus is byte-identical (acceptance).
        second = tmp_path / "report-second"
        assert study_cli.main(["report", path, "--out-dir", str(second)]) == 0
        for path_a in sorted((out_dir).rglob("*")):
            if path_a.is_file():
                path_b = second / path_a.relative_to(out_dir)
                assert path_a.read_bytes() == path_b.read_bytes()

    def test_fit_exits_nonzero_when_every_fit_is_degenerate(self, corpus, tmp_path, capsys):
        tiny = StudyCorpus(records=corpus.records[:2], compositing_records=corpus.compositing_records[:2])
        path = self._save(tiny, tmp_path, "tiny.json")
        assert study_cli.main(["fit", path]) == study_cli.EXIT_ALL_FITS_DEGENERATE
        out = capsys.readouterr().out
        structured = json.loads(out[out.index("{"):])
        assert structured["error"] == "all-fits-degenerate"
        assert structured["failures"]

    def test_report_exits_nonzero_when_every_fit_is_degenerate(self, corpus, tmp_path, capsys):
        tiny = StudyCorpus(records=corpus.records[:1])
        path = self._save(tiny, tmp_path, "tiny.json")
        out_dir = tmp_path / "degenerate-report"
        code = study_cli.main(["report", path, "--out-dir", str(out_dir)])
        assert code == study_cli.EXIT_ALL_FITS_DEGENERATE
        # The artifact tree is still written: failures are data, not crashes.
        assert (out_dir / "report.json").is_file()
        capsys.readouterr()

    def test_fit_happy_path_reports_r_squared(self, corpus, tmp_path, capsys):
        path = self._save(corpus, tmp_path)
        assert study_cli.main(["fit", path, "--crossval"]) == 0
        out = capsys.readouterr().out
        assert "R^2" in out and "within50" in out

    def test_predict_inline_configuration(self, corpus, suite, tmp_path, capsys):
        models = str(suite.save(tmp_path / "models.json"))
        code = study_cli.main(
            [
                "predict", models,
                "--architecture", "gpu1-k40m", "--technique", "raytrace",
                "--num-tasks", "64", "--cells-per-task", "150", "--image-size", "2048",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        [row] = payload["predictions"]
        assert 0.0 <= row["lower"] <= row["seconds"] <= row["upper"]

    def test_predict_batch_file_preserves_input_order(self, suite, tmp_path, capsys):
        models = str(suite.save(tmp_path / "models.json"))
        volume = {"architecture": "gpu1-k40m", "technique": "volume", "image_width": 512, "image_height": 512}
        configs = [
            {**volume, "num_tasks": 8},
            {"architecture": "gpu1-k40m", "technique": "raytrace", "num_tasks": 16},
            {**volume, "num_tasks": 64},
        ]
        configs_path = tmp_path / "configs.json"
        configs_path.write_text(json.dumps(configs))
        out_path = tmp_path / "predictions.json"
        code = study_cli.main(["predict", models, "--configs", str(configs_path), "--out", str(out_path)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert [row["technique"] for row in payload["predictions"]] == ["volume", "raytrace", "volume"]
        # More tasks shrink a task's screen footprint: same image, less time.
        assert payload["predictions"][2]["seconds"] < payload["predictions"][0]["seconds"]

    def test_predict_compositing_configurations(self, corpus, suite, tmp_path, capsys):
        models = str(suite.save(tmp_path / "models.json"))
        configs = [
            {"architecture": "-", "technique": "compositing", "average_active_pixels": 800.0, "pixels": 4096},
            {"architecture": "gpu1-k40m", "technique": "volume", "num_tasks": 8},
        ]
        configs_path = tmp_path / "configs.json"
        configs_path.write_text(json.dumps(configs))
        assert study_cli.main(["predict", models, "--configs", str(configs_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        compositing_row, volume_row = payload["predictions"]
        expected = Predictor(suite).predict_compositing(800.0, 4096)
        assert compositing_row["seconds"] == expected.seconds[0]
        assert volume_row["technique"] == "volume"

    def test_predict_compositing_without_inputs_is_a_usage_error(self, suite, tmp_path, capsys):
        models = str(suite.save(tmp_path / "models.json"))
        code = study_cli.main(
            ["predict", models, "--architecture", "-", "--technique", "compositing"]
        )
        assert code == 2
        assert "average_active_pixels" in capsys.readouterr().err

    def test_predict_unknown_model_is_a_structured_error(self, suite, tmp_path, capsys):
        models = str(suite.save(tmp_path / "models.json"))
        code = study_cli.main(
            ["predict", models, "--architecture", "nope", "--technique", "raytrace"]
        )
        assert code == study_cli.EXIT_UNKNOWN_MODEL
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["error"]["code"] == "unknown-model"
        assert payload["error"]["available"], "the error must list the servable slices"
        assert "no fitted model" in captured.err

    @pytest.mark.parametrize("command", ["plan", "run"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [pytest.param(*row, id=row[0]) for row in [
            (
                "--simulations",
                "kripke,krypke",
                "unknown simulation 'krypke'; choose from lulesh, kripke, cloverleaf",
            ),
            (
                "--techniques",
                "raytrace,voluem",
                "unknown technique 'voluem'; choose from " + ", ".join(TECHNIQUES),
            ),
            (
                "--architectures",
                "cpu-host,gpu1-k40",
                "unknown architecture 'gpu1-k40'; choose from " + ", ".join(list_architectures()),
            ),
            ("--dpp-devices", "vectorised", "unknown device 'vectorised'; choose from serial, vectorized"),
            (
                "--compositing-algorithms",
                "radix-k,binary-swp",
                "unknown compositing algorithm 'binary-swp'; choose from direct-send, binary-swap, radix-k",
            ),
            (
                "--compositing-scenario",
                "orbit",
                "unknown compositing scenario 'orbit'; choose from uniform, amr, camera-orbit",
            ),
            ("--samples", "-1", "samples_per_technique must be at least 0, got -1"),
            ("--task-counts", "4,0", "task_counts must be at least 1, got 0"),
            ("--compositing-tasks", "0", "compositing_task_counts must be at least 1, got 0"),
            ("--max-live-ranks", "0", "compositing_max_live_ranks must be at least 1, got 0"),
            ("--radices", "2,x", "invalid literal for int() with base 10: 'x'"),
        ]],
    )
    def test_unknown_technique_is_rejected_before_anything_is_planned(
        self, command, flag, value, message, tmp_path, capsys
    ):
        out, cache = tmp_path / "out.json", tmp_path / "cache"
        args = [command, "--preset", "smoke", flag, value, "--out", str(out)]
        if command == "run":
            args += ["--cache-dir", str(cache)]
        with pytest.raises(SystemExit) as usage_error:
            study_cli.main(args)
        assert usage_error.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists() and not cache.exists()

    @pytest.mark.parametrize("command", ["plan", "run"])
    def test_unknown_dpp_device_is_rejected_before_anything_is_planned(self, command, tmp_path, capsys):
        out, cache = tmp_path / "out.json", tmp_path / "cache"
        args = [command, "--preset", "smoke", "--dpp-devices", "vectorised", "--out", str(out)]
        if command == "run":
            args += ["--cache-dir", str(cache), "--jobs", "1"]
        with pytest.raises(SystemExit) as usage_error:
            study_cli.main(args)
        assert usage_error.value.code == 2
        captured = capsys.readouterr()
        assert "unknown device 'vectorised'; choose from serial, vectorized" in captured.err
        assert captured.out == ""
        assert not out.exists() and not cache.exists()
        with pytest.raises(SystemExit):
            study_cli.main([command, "--help"])
        help_text = capsys.readouterr().out
        assert "comma list from serial,vectorized" in " ".join(help_text.split())
        # Every named axis lists its registry (argparse may wrap a name at a hyphen).
        registries = [
            SIMULATION_FIELDS,
            TECHNIQUES,
            ["cpu-host", *list_architectures()],
            list_devices(),
            ALGORITHMS,
            SCENARIOS,
        ]
        for names in registries:
            assert "from" + ",".join(names) in "".join(help_text.split())

    @pytest.mark.parametrize("device", list_devices())
    def test_every_registered_dpp_device_reaches_the_plan(self, device, tmp_path, capsys):
        out = tmp_path / "plan.json"
        args = ["plan", "--preset", "smoke", "--dpp-devices", f" {device} ,", "--out", str(out)]
        assert study_cli.main(args) == 0
        capsys.readouterr()
        plan = json.loads(out.read_text())
        assert plan["config"]["dpp_devices"] == [device]
        renders = [spec for spec in plan["specs"] if spec["kind"] == "render"]
        assert renders and {spec["dpp_device"] for spec in renders} == {device}

    def test_predict_requires_a_configuration_source(self, suite, tmp_path, capsys):
        models = str(suite.save(tmp_path / "models.json"))
        assert study_cli.main(["predict", models]) == 2
        assert "--configs" in capsys.readouterr().err


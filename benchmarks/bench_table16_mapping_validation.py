"""Table 16: validating the mapping from rendering configurations to model inputs.

For a handful of host experiments, compares the mapped (a-priori) model inputs
against the observed inputs and the resulting predicted times against the
measured times -- the three groupings of the paper's Table 16.
"""

from __future__ import annotations

from common import print_table
from repro.modeling import RenderingConfiguration, map_configuration_to_features


def test_table16_mapping_validation(benchmark, study_corpus, fitted_models):
    rows = []
    ratios = []
    picked = []
    for technique in ("volume", "raytrace", "raster"):
        picked.extend(study_corpus.select("cpu-host", technique)[:2])
    for index, record in enumerate(picked):
        model = fitted_models[("cpu-host", record.technique)]
        config = RenderingConfiguration(
            technique=record.technique,
            architecture="cpu-host",
            num_tasks=record.num_tasks,
            cells_per_task=record.cells_per_task,
            image_width=record.image_width,
            image_height=record.image_height,
            samples_in_depth=200,
        )
        mapped = map_configuration_to_features(config)
        predicted_mapping = model.predict(mapped)
        predicted_observed = model.predict(record.features)
        actual = record.total_seconds
        ratios.append(predicted_mapping / max(actual, 1e-12))
        rows.append(
            [
                index,
                record.technique,
                f"{record.cells_per_task}^3",
                f"{record.image_width}^2",
                record.num_tasks,
                f"O {mapped.objects} / {record.features.objects}",
                f"AP {mapped.active_pixels} / {record.features.active_pixels}",
                f"{predicted_mapping:.3f}s",
                f"{predicted_observed:.3f}s",
                f"{actual:.3f}s",
            ]
        )
    print_table(
        "Table 16: mapping validation (predicted-from-mapping vs predicted-from-observed vs actual)",
        ["test", "technique", "mesh", "image", "tasks", "objects (map/obs)", "active px (map/obs)", "mapping", "experiment", "actual"],
        rows,
    )

    benchmark(lambda: map_configuration_to_features(
        RenderingConfiguration("volume", "cpu-host", 8, 160, 1024, 1024)
    ))
    # Mapping-based predictions stay within an order of magnitude of reality
    # and skew conservative more often than not.
    assert all(0.1 < ratio < 20.0 for ratio in ratios)

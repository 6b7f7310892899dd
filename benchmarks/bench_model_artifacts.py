"""Tables 12-17 and Figures 11-15: the report's emitters against the paper's claims.

Each test calls one emitter of :mod:`repro.reporting` -- the code ``python -m
repro.study report`` runs and CI publishes -- on the session corpus and its
fitted suite, prints the emitter's Markdown (run with ``-s``), times the call,
and asserts the artifact's claim on the JSON payload.  Table 15 reads the
Section 5.7 calibration corpus instead (``calibration_corpus`` in
``conftest.py``).  Nothing here re-derives an artifact: the emitters are its
one implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.reporting.figures import FIGURE_EMITTERS
from repro.reporting.tables import TABLE_EMITTERS

EMITTERS = {**TABLE_EMITTERS, **FIGURE_EMITTERS}


def _renderer_rows(payload: dict) -> list[dict]:
    return [row for row in payload["rows"] if row["technique"] != "compositing"]


def table12(payload, corpus):
    # Most models capture the bulk of the variance (paper: 5 of 6 above 0.94).
    values = [row["r_squared"] for row in _renderer_rows(payload)]
    assert len(values) == 6
    assert sum(value > 0.9 for value in values) >= 4
    assert all(value > 0.5 for value in values)


def table13(payload, corpus):
    # Every model predicts within 50% for the overwhelming majority of held-out
    # points (the paper's worst case was 96%).
    assert len(payload["rows"]) == 6
    for row in payload["rows"]:
        assert row["accuracy"]["within_50"] >= 70.0


def table14(payload, corpus):
    # The compositing model is the weakest of the set (paper: 29% average error,
    # 88% within 50%); require a broadly similar level of usefulness.
    assert payload["available"]
    accuracy = payload["rows"][0]["accuracy"]
    assert accuracy["within_50"] >= 50.0
    assert accuracy["average_percent"] <= 80.0


def table15(payload, corpus):
    # Surface renderers predict within tens of percent (paper: -6% and +18%);
    # volume rendering is allowed to be far off (paper: -79%).
    differences = {row["technique"]: row["difference_percent"] for row in payload["rows"]}
    assert {row["architecture"] for row in payload["rows"]} == {"gpu2-titan-k20"}
    assert abs(differences["raytrace"]) < 60.0
    assert abs(differences["raster"]) < 60.0


def table16(payload, corpus):
    # Mapping-based predictions stay within an order of magnitude of reality.
    assert payload["rows"]
    for row in payload["rows"]:
        assert 0.1 < row["predicted_from_mapping"] / max(row["actual_seconds"], 1e-12) < 20.0


def table17(payload, corpus):
    # Every renderer coefficient is non-negative (the paper's validity criterion).
    rows = _renderer_rows(payload)
    assert len(rows) == 6
    for row in rows:
        assert all(value >= 0.0 for value in row["coefficients"].values())


def fig11(payload, corpus):
    # In most models the slower (larger) renders are predicted at least as well
    # as the fast ones -- the paper's "increasingly accurate as render time goes up".
    series = payload["series"]
    assert len(series) == 6 and all(s["available"] for s in series)
    improves = sum(s["mean_abs_error_slow_half"] <= s["mean_abs_error_fast_half"] * 1.5 for s in series)
    assert improves >= len(series) // 2


def fig12(payload, corpus):
    # Dominant trend: more pixels -> slower.
    by_pixels: dict[int, list[float]] = {}
    for row in payload["rows"]:
        by_pixels.setdefault(row["pixels"], []).append(row["seconds"])
    smallest, largest = min(by_pixels), max(by_pixels)
    assert np.mean(by_pixels[largest]) > np.mean(by_pixels[smallest])


def fig13(payload, corpus):
    # One held-out error per compositing row.
    assert payload["available"]
    assert len(payload["errors"]) == len(corpus.compositing_records)


def fig14(payload, corpus):
    # Counts never increase with image size, and at least one configuration
    # reaches the hundreds-of-images regime the image-database use case needs.
    points = payload["points"]
    series: dict[tuple[str, str], list[int]] = {}
    for point in points:
        series.setdefault((point["architecture"], point["technique"]), []).append(point["images_in_budget"])
    assert len(series) == 6
    for counts in series.values():
        assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert max(point["images_in_budget"] for point in points) > 100


def fig15(payload, corpus):
    # Headline shape: ray tracing wins at small image + large data,
    # rasterization wins at large image + small data; monotone along both axes.
    (grid,) = [grid for grid in payload["grids"] if grid["architecture"] == "gpu1-k40m"]
    ratio = np.array(grid["ratio"])
    assert ratio[-1, 0] > 1.0
    assert ratio[0, -1] < 1.0
    assert np.all(np.diff(ratio, axis=0).mean(axis=1) >= -0.05)
    assert np.all(np.diff(ratio, axis=1).mean(axis=0) <= 0.05)


#: Emitter slug -> the paper claim its payload must satisfy.
CLAIMS = {
    "table12_model_r2": table12,
    "table13_crossval_accuracy": table13,
    "table14_compositing_accuracy": table14,
    "table15_large_scale_prediction": table15,
    "table16_mapping_validation": table16,
    "table17_coefficients": table17,
    "fig11_crossval_error": fig11,
    "fig12_compositing_histogram": fig12,
    "fig13_compositing_crossval": fig13,
    "fig14_images_per_budget": fig14,
    "fig15_rt_vs_raster": fig15,
}


@pytest.mark.parametrize("slug", list(EMITTERS))
def test_model_artifact(benchmark, request, slug):
    calibration = slug == "table15_large_scale_prediction"
    suite = request.getfixturevalue("calibration_suite" if calibration else "model_suite")
    corpus = request.getfixturevalue("calibration_corpus" if calibration else "study_corpus")
    emitter = EMITTERS[slug]
    payload, markdown = emitter(suite, corpus)
    print("\n" + markdown)
    benchmark(emitter, suite, corpus)
    CLAIMS[slug](payload, corpus)

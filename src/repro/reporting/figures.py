"""Data emitters for the paper's figures (Figures 11-15).

Figures are emitted as machine-checkable JSON (the full series -- per-point
held-out errors, feasibility curves, ratio grids) plus a compact Markdown
summary for CI job summaries.  Like the table emitters, a missing slice is
recorded rather than raised: the RT-vs-raster grid (Figure 15) simply lists no
grids when a corpus has no rasterization rows.
"""

from __future__ import annotations

import numpy as np

from repro.modeling.feasibility import images_within_budget, raytracing_vs_rasterization
from repro.modeling.study import StudyCorpus
from repro.reporting.suite import ModelSuite
from repro.reporting.tables import markdown_table

__all__ = [
    "fig11_crossval_error",
    "fig12_compositing_histogram",
    "fig13_compositing_crossval",
    "fig14_images_per_budget",
    "fig15_rt_vs_raster",
    "FIGURE_EMITTERS",
]

#: Figure 14 sweep: square image edge lengths and the fixed budget/simulation.
BUDGET_IMAGE_SIZES = (1024, 1536, 2048, 3072, 4096)
BUDGET_SECONDS = 60.0
BUDGET_TASKS = 32
BUDGET_CELLS_PER_TASK = 200

#: Figure 15 grid: image sizes x per-task data sizes (100 renderings, 32 tasks).
RATIO_IMAGE_SIZES = (384, 768, 1152, 1920, 2688, 4096)
RATIO_DATA_SIZES = (100, 200, 300, 400, 500)
RATIO_NUM_RENDERINGS = 100


def _artifact(number: int, slug: str, title: str, **body) -> dict:
    return {"figure": number, "slug": slug, "title": title, **body}


# -- Figure 11 ------------------------------------------------------------------------


def fig11_crossval_error(suite: ModelSuite, corpus: StudyCorpus) -> tuple[dict, str]:
    """Held-out relative error versus predicted time, per renderer model."""
    series = []
    md_rows = []
    for key in sorted(suite.entries):
        entry = suite.entries[key]
        if entry.crossval is None:
            series.append(
                {
                    "architecture": entry.architecture,
                    "technique": entry.technique,
                    "available": False,
                    "crossval_skipped": entry.crossval_skipped,
                }
            )
            md_rows.append([entry.architecture, entry.technique, "(skipped)", "-", "-"])
            continue
        summary = entry.crossval
        errors = np.abs(summary.errors) * 100.0
        median_prediction = np.median(summary.predictions)
        fast_half = errors[summary.predictions < median_prediction]
        slow_half = errors[summary.predictions >= median_prediction]
        series.append(
            {
                "architecture": entry.architecture,
                "technique": entry.technique,
                "available": True,
                "errors": [float(v) for v in summary.errors],
                "predictions": [float(v) for v in summary.predictions],
                "actuals": [float(v) for v in summary.actuals],
                "mean_abs_error_fast_half": float(np.mean(fast_half)) if len(fast_half) else 0.0,
                "mean_abs_error_slow_half": float(np.mean(slow_half)) if len(slow_half) else 0.0,
                "max_abs_error": float(np.max(errors)) if len(errors) else 0.0,
            }
        )
        md_rows.append(
            [
                entry.architecture,
                entry.technique,
                f"{series[-1]['mean_abs_error_fast_half']:.1f}%",
                f"{series[-1]['mean_abs_error_slow_half']:.1f}%",
                f"{series[-1]['max_abs_error']:.1f}%",
            ]
        )
    title = "Figure 11: cross-validation error vs predicted render time"
    payload = _artifact(11, "crossval_error", title, folds=suite.folds, seed=suite.seed, series=series)
    markdown = f"### {title}\n\n" + markdown_table(
        ["architecture", "technique", "mean |err| fast half", "mean |err| slow half", "max |err|"],
        md_rows,
    )
    return payload, markdown


# -- Figures 12 and 13 ----------------------------------------------------------------


def fig12_compositing_histogram(suite: ModelSuite, corpus: StudyCorpus) -> tuple[dict, str]:
    """Compositing time by task count and pixel count (the Eq. 5.5 corpus)."""
    rows = [
        {
            "algorithm": record.algorithm,
            "num_tasks": record.num_tasks,
            "pixels": record.pixels,
            "average_active_pixels": float(record.average_active_pixels),
            "seconds": float(record.seconds),
        }
        for record in corpus.compositing_records
    ]
    title = "Figure 12: compositing time by tasks and pixels"
    payload = _artifact(12, "compositing_histogram", title, rows=rows)
    md_rows = [
        [row["algorithm"], row["num_tasks"], row["pixels"], f"{row['seconds']:.5f}s"] for row in rows
    ]
    markdown = f"### {title}\n\n" + markdown_table(["algorithm", "tasks", "pixels", "time"], md_rows)
    return payload, markdown


def fig13_compositing_crossval(suite: ModelSuite, corpus: StudyCorpus) -> tuple[dict, str]:
    """Held-out error of the compositing model, banded by predicted time."""
    title = "Figure 13: compositing cross-validation error by predicted-time band"
    entry = suite.compositing
    if entry is None or entry.crossval is None:
        reason = "no compositing rows" if entry is None else entry.crossval_skipped
        payload = _artifact(13, "compositing_crossval", title, available=False, reason=reason)
        return payload, f"### {title}\n\n(unavailable: {reason})\n"
    summary = entry.crossval
    errors = np.abs(summary.errors) * 100.0
    order = np.argsort(summary.predictions, kind="stable")
    bands = []
    md_rows = []
    labels = ("small predictions", "medium predictions", "large predictions")
    for label, indices in zip(labels, np.array_split(order, 3)):
        mean_error = float(np.mean(errors[indices])) if len(indices) else 0.0
        max_error = float(np.max(errors[indices])) if len(indices) else 0.0
        bands.append({"band": label, "mean_abs_error": mean_error, "max_abs_error": max_error})
        md_rows.append([label, f"{mean_error:.1f}%", f"{max_error:.1f}%"])
    payload = _artifact(
        13,
        "compositing_crossval",
        title,
        available=True,
        bands=bands,
        errors=[float(v) for v in summary.errors],
        predictions=[float(v) for v in summary.predictions],
    )
    markdown = f"### {title}\n\n" + markdown_table(["band", "mean |err|", "max |err|"], md_rows)
    return payload, markdown


# -- Figure 14 ------------------------------------------------------------------------


def fig14_images_per_budget(suite: ModelSuite, corpus: StudyCorpus) -> tuple[dict, str]:
    """Images renderable in a fixed budget for every fitted model (Figure 14)."""
    points = images_within_budget(
        {key: entry.model for key, entry in suite.entries.items()},
        budget_seconds=BUDGET_SECONDS,
        num_tasks=BUDGET_TASKS,
        cells_per_task=BUDGET_CELLS_PER_TASK,
        image_sizes=np.array(BUDGET_IMAGE_SIZES),
    )
    title = (
        f"Figure 14: images renderable in a {BUDGET_SECONDS:.0f}s budget "
        f"({BUDGET_TASKS} tasks, {BUDGET_CELLS_PER_TASK}^3 cells/task)"
    )
    payload = _artifact(
        14,
        "images_per_budget",
        title,
        budget_seconds=BUDGET_SECONDS,
        num_tasks=BUDGET_TASKS,
        cells_per_task=BUDGET_CELLS_PER_TASK,
        points=[point.as_dict() for point in points],
    )
    md_rows = [
        [
            point.architecture,
            point.technique,
            point.image_size,
            f"{point.seconds_per_image:.4f}s",
            point.images_in_budget,
        ]
        for point in points
    ]
    markdown = f"### {title}\n\n" + markdown_table(
        ["architecture", "technique", "image size", "s/image", "images in budget"], md_rows
    )
    return payload, markdown


# -- Figure 15 ------------------------------------------------------------------------


def fig15_rt_vs_raster(suite: ModelSuite, corpus: StudyCorpus) -> tuple[dict, str]:
    """Rasterization-time / ray-tracing-time ratio grids (Figure 15).

    One grid per architecture that has both a ray-tracing and a rasterization
    model; ratios above one mean ray tracing produces more images per unit
    time over :data:`RATIO_NUM_RENDERINGS` renderings (one amortised BVH
    build).
    """
    grids = []
    markdown_parts = []
    architectures = sorted({architecture for architecture, _ in suite.entries})
    for architecture in architectures:
        raytrace = suite.entries.get((architecture, "raytrace"))
        raster = suite.entries.get((architecture, "raster"))
        if raytrace is None or raster is None:
            continue
        heat = raytracing_vs_rasterization(
            raytrace.model,
            raster.model,
            num_tasks=BUDGET_TASKS,
            num_renderings=RATIO_NUM_RENDERINGS,
            image_sizes=np.array(RATIO_IMAGE_SIZES),
            data_sizes=np.array(RATIO_DATA_SIZES),
        )
        grids.append(
            {
                "architecture": architecture,
                "image_sizes": [int(v) for v in heat["image_sizes"]],
                "data_sizes": [int(v) for v in heat["data_sizes"]],
                "ratio": [[float(v) for v in row] for row in heat["ratio"]],
            }
        )
        md_rows = [
            [f"{cells}^3", *[f"{value:.2f}" for value in row]]
            for cells, row in zip(RATIO_DATA_SIZES, heat["ratio"])
        ]
        markdown_parts.append(
            f"**{architecture}**\n\n"
            + markdown_table(["data size", *[f"{size}^2" for size in RATIO_IMAGE_SIZES]], md_rows)
        )
    title = (
        f"Figure 15: rasterization time / ray-tracing time "
        f"({RATIO_NUM_RENDERINGS} renderings, {BUDGET_TASKS} tasks)"
    )
    payload = _artifact(
        15,
        "rt_vs_raster",
        title,
        num_renderings=RATIO_NUM_RENDERINGS,
        num_tasks=BUDGET_TASKS,
        grids=grids,
    )
    if markdown_parts:
        markdown = f"### {title}\n\n" + "\n".join(markdown_parts)
    else:
        markdown = f"### {title}\n\n(no architecture has both ray-tracing and rasterization models)\n"
    return payload, markdown


#: Slug -> emitter, in figure order (the report orchestrator iterates this).
FIGURE_EMITTERS = {
    "fig11_crossval_error": fig11_crossval_error,
    "fig12_compositing_histogram": fig12_compositing_histogram,
    "fig13_compositing_crossval": fig13_compositing_crossval,
    "fig14_images_per_budget": fig14_images_per_budget,
    "fig15_rt_vs_raster": fig15_rt_vs_raster,
}

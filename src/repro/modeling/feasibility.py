"""In situ viability analyses (Section 5.9).

Two feasibility questions are answered with the fitted models plus the
configuration-to-feature mapping:

* :func:`images_within_budget` -- how many images of a given size can each
  (architecture, technique) render within a fixed time budget (Figure 14)?
  The BVH build is amortised: it is paid once, then every additional frame
  costs only the per-frame time.
* :func:`raytracing_vs_rasterization` -- for a grid of image sizes and data
  sizes, the ratio of predicted rasterization time to predicted ray-tracing
  time over a repeated-rendering session (Figure 15).  Values above one mean
  ray tracing is faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.modeling.features import SAMPLES_IN_DEPTH, map_configuration_batch
from repro.modeling.models import PerformanceModel

__all__ = [
    "BudgetPoint",
    "images_within_budget",
    "raytracing_vs_rasterization",
]


@dataclass
class BudgetPoint:
    """One point of the Figure 14 curves."""

    architecture: str
    technique: str
    image_size: int
    seconds_per_image: float
    images_in_budget: int

    def as_dict(self) -> dict[str, float | int | str]:
        """JSON-serializable row (the Figure 14 data emitter's unit)."""
        return {
            "architecture": self.architecture,
            "technique": self.technique,
            "image_size": int(self.image_size),
            "seconds_per_image": float(self.seconds_per_image),
            "images_in_budget": int(self.images_in_budget),
        }


def _predict_frame_seconds(
    model: PerformanceModel,
    arrays: dict[str, np.ndarray],
    compositing_model: PerformanceModel | None,
    pixels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(per-frame seconds, one-time seconds) of mapped configurations.

    The per-frame time is Eq. 5.4 for one mapped task: the local render plus,
    when a compositing model is given, Eq. 5.5 at the task's active pixels.
    """
    frame = model.predict(arrays, include_build=False)
    # Not the build group's own prediction: Figures 14/15 print this difference.
    build = model.predict(arrays, include_build=True) - frame
    if compositing_model is not None:
        frame = frame + compositing_model.predict(
            {"average_active_pixels": arrays["active_pixels"], "pixels": pixels}
        )
    return np.maximum(frame, 1e-12), np.maximum(build, 0.0)


def images_within_budget(
    models: dict[tuple[str, str], PerformanceModel],
    budget_seconds: float = 60.0,
    num_tasks: int = 32,
    cells_per_task: int = 200,
    image_sizes: np.ndarray | None = None,
    compositing_model: PerformanceModel | None = None,
    samples_in_depth: int = SAMPLES_IN_DEPTH,
) -> list[BudgetPoint]:
    """Predict how many images fit in a time budget for every fitted model.

    Parameters
    ----------
    models:
        Mapping of ``(architecture, technique)`` to a fitted model (the
        ``model`` of each entry of a :class:`repro.reporting.ModelSuite`).
    budget_seconds:
        The rendering budget (60 seconds in the paper's example).
    num_tasks, cells_per_task:
        The fixed simulation configuration (32 tasks of 200^3 in the paper).
    image_sizes:
        Square image edge lengths to sweep (defaults to the paper's
        1024..4096 range in steps of 128).
    compositing_model:
        Optional compositing model added to every frame.
    """
    if image_sizes is None:
        image_sizes = np.arange(1024, 4096 + 1, 128)
    sizes = np.asarray(image_sizes, dtype=np.int64)
    points: list[BudgetPoint] = []
    for (architecture, technique), model in sorted(models.items()):
        arrays = map_configuration_batch(
            technique, num_tasks, cells_per_task, sizes, sizes, samples_in_depth
        )
        frames, builds = _predict_frame_seconds(
            model, arrays, compositing_model, (sizes * sizes).astype(np.float64)
        )
        for size, frame, build in zip(sizes.tolist(), frames.tolist(), builds.tolist()):
            remaining = max(budget_seconds - build, 0.0)
            points.append(
                BudgetPoint(
                    architecture=architecture,
                    technique=technique,
                    image_size=size,
                    seconds_per_image=frame,
                    images_in_budget=int(remaining // frame),
                )
            )
    return points


def raytracing_vs_rasterization(
    raytracing_model: PerformanceModel,
    rasterization_model: PerformanceModel,
    num_tasks: int = 32,
    num_renderings: int = 100,
    image_sizes: np.ndarray | None = None,
    data_sizes: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """The Figure 15 heat map: rasterization time / ray-tracing time.

    For each (image size, data size) cell the predicted cost of
    ``num_renderings`` renderings is computed for both techniques, including
    the single amortised BVH build for ray tracing.  The returned dictionary
    holds the two axes and the ratio matrix (``ratio > 1`` means ray tracing
    produces more images per unit time).  Both models come from one
    architecture's fits; the Section 5.8 mapping does not depend on it.
    """
    if image_sizes is None:
        image_sizes = np.arange(384, 4096 + 1, 128)
    if data_sizes is None:
        data_sizes = np.arange(100, 500 + 1, 25)
    # One row per (data size, image size) cell, data size outermost.
    cells = np.repeat(np.asarray(data_sizes, dtype=np.int64), len(image_sizes))
    sizes = np.tile(np.asarray(image_sizes, dtype=np.int64), len(data_sizes))
    rt_arrays = map_configuration_batch("raytrace", num_tasks, cells, sizes, sizes)
    rast_arrays = map_configuration_batch("raster", num_tasks, cells, sizes, sizes)
    rt_frame = raytracing_model.predict(rt_arrays, include_build=False)
    rt_build = raytracing_model.predict(rt_arrays, include_build=True) - rt_frame
    rt_total = rt_build + num_renderings * rt_frame
    rast_total = num_renderings * rasterization_model.predict(rast_arrays)
    ratio = rast_total / np.maximum(rt_total, 1e-12)
    return {
        "image_sizes": np.asarray(image_sizes),
        "data_sizes": np.asarray(data_sizes),
        "ratio": ratio.reshape(len(data_sizes), len(image_sizes)),
    }

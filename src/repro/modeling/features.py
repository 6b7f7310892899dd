"""Model input variables and the configuration-to-variable mapping of Section 5.8.

Domain scientists think of a rendering task in terms of its *configuration* --
architecture, rendering technique, number of MPI tasks, image resolution, and
per-task data size.  The performance models, however, consume the *variable
inputs* O, AP, VO, PPT, SPR, and CS.  :func:`map_configuration_to_features`
bridges the two exactly as the paper's mapping does:

* ``Objects``: ``12 N^2`` external-face triangles for the surface renderers
  (two triangles per boundary quad on each of the six faces of an ``N^3``
  block), ``N^3`` cells for volume rendering.
* ``Active Pixels``: a fixed camera fill fraction of the image, divided by the
  cube root of the task count (each direction of the block grid shrinks a
  task's screen footprint).
* ``Visible Objects``: ``min(AP, O)``.
* ``Pixels Per Triangle``: ``4 AP / VO`` -- front and back faces overlap each
  active pixel and the two "other" triangles of each quad also consider the
  pixel before failing their inside test.
* ``Samples Per Ray``: a per-task baseline shrinking with the cube root of the
  task count.
* ``Cells Spanned``: ``N``.

The constants (camera fill fraction, samples baseline) are module-level so
tests and alternative camera models can adjust them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.techniques import ObservedFeatures, get_technique

__all__ = [
    "RenderingConfiguration",
    "CompositingFeatures",
    "map_configuration_to_features",
    "map_configuration_batch",
    "feature_arrays",
    "compositing_features_from_result",
    "contention_features_from_result",
    "CAMERA_FILL_FRACTION",
    "SAMPLES_PER_RAY_BASELINE",
]

#: Fraction of image pixels the default framing camera covers on one task
#: ("Our camera positions filled about 60% of pixels by default" -- the
#: reproduction's framing camera fills a bit less on its smaller scenes).
CAMERA_FILL_FRACTION = 0.55

#: Baseline samples-per-ray for a single task (373 in the paper's full-scale
#: study with 1000 samples in depth; proportionally smaller here because the
#: default renderer uses 200 samples in depth).
SAMPLES_PER_RAY_BASELINE = 373.0

#: How many pixels each visible triangle considers per active pixel it covers
#: (front + back face, plus the two complementary quad triangles that fail
#: their inside test).
PIXELS_PER_TRIANGLE_FACTOR = 4.0

#: Batches of at least this many rows take the cube root once per distinct
#: task count instead of once per row.  ``np.unique`` costs a fixed ~11 us,
#: more than the per-row roots of a serving group (1-81 rows, median 10, in
#: the ``serve_mixed`` load).  With eight distinct counts the two break even
#: near 128 rows (timeit, 2-vCPU x86-64, numpy 2.4), and a sweep's 10,000-row,
#: ten-count batch drops from ~0.8 ms to ~0.2 ms.
DISTINCT_ROOT_MIN_ROWS = 128

#: The Section 5.8 inputs beyond ``O`` / ``AP`` / ``CS`` that each model
#: family's equation consumes and both mappings therefore fill in.
_FAMILY_EXTRAS = {
    "raytrace": (),
    "raster": ("visible_objects", "pixels_per_triangle"),
    "volume": ("samples_per_ray",),
}


@dataclass(frozen=True)
class RenderingConfiguration:
    """A user-facing rendering configuration (the rows of Table 16).

    Attributes
    ----------
    technique:
        A name of :data:`repro.techniques.TECHNIQUES`.
    architecture:
        Registered architecture name (``"cpu-host"``, ``"gpu1-k40m"``, ...).
    num_tasks:
        Number of MPI tasks.
    cells_per_task:
        ``N`` for an ``N^3`` block per task.
    image_width, image_height:
        Output resolution.
    samples_in_depth:
        Volume-rendering sample count used to scale ``SPR`` (the paper's
        full-scale studies use 1000).
    """

    technique: str
    architecture: str
    num_tasks: int
    cells_per_task: int
    image_width: int
    image_height: int
    samples_in_depth: int = 1000

    def __post_init__(self) -> None:
        get_technique(self.technique)
        if self.num_tasks < 1 or self.cells_per_task < 1:
            raise ValueError("num_tasks and cells_per_task must be positive")
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError("image dimensions must be positive")

    @property
    def pixels(self) -> int:
        """Total pixels in the output image."""
        return self.image_width * self.image_height

    @property
    def total_cells(self) -> int:
        """Total cells across all tasks (weak scaling)."""
        return self.num_tasks * self.cells_per_task**3


def map_configuration_to_features(config: RenderingConfiguration) -> ObservedFeatures:
    """A-priori estimate of the model input variables for a configuration.

    The estimates are intentionally conservative (upper bounds), so that --
    because all fitted coefficients are positive -- predictions made from the
    mapping err on the slow side (Section 5.8, "overestimates lead to
    conservative results").
    """
    technique = get_technique(config.technique)
    n = config.cells_per_task
    task_shrink = config.num_tasks ** (1.0 / 3.0)
    active_pixels = CAMERA_FILL_FRACTION * config.pixels / task_shrink
    features = ObservedFeatures(
        objects=int(12 * n * n if technique.surface else n**3),
        active_pixels=int(round(active_pixels)),
        cells_spanned=n,
    )
    extras = _FAMILY_EXTRAS[technique.family]
    if "visible_objects" in extras:
        visible = min(features.active_pixels, features.objects)
        features.visible_objects = int(visible)
        features.pixels_per_triangle = (
            PIXELS_PER_TRIANGLE_FACTOR * features.active_pixels / max(visible, 1)
        )
    if "samples_per_ray" in extras:
        scale = config.samples_in_depth / 1000.0
        features.samples_per_ray = SAMPLES_PER_RAY_BASELINE * scale / task_shrink
    return features


def _cube_roots(values: np.ndarray) -> np.ndarray:
    """Scalar-pow cube root of every element (bit-equal to the scalar mapping)."""
    return np.array([value ** (1.0 / 3.0) for value in values.tolist()], dtype=np.float64)


def map_configuration_batch(
    technique: str,
    num_tasks: np.ndarray,
    cells_per_task: np.ndarray,
    image_width: np.ndarray,
    image_height: np.ndarray,
    samples_in_depth: np.ndarray | int = 1000,
) -> dict[str, np.ndarray]:
    """Vectorized :func:`map_configuration_to_features` over arrays of configurations.

    All parameters broadcast against each other; the result is a dictionary of
    1-D float64 arrays keyed like :meth:`ObservedFeatures` attribute names.
    Element for element the mapping is exactly the scalar one (same rounding,
    same clamps), so the batch :class:`~repro.reporting.predictor.Predictor`
    and the scalar prediction path agree bit for bit.
    """
    technique = get_technique(technique)
    num_tasks, cells, width, height, samples = np.broadcast_arrays(
        np.atleast_1d(np.asarray(num_tasks, dtype=np.float64)),
        np.atleast_1d(np.asarray(cells_per_task, dtype=np.float64)),
        np.atleast_1d(np.asarray(image_width, dtype=np.float64)),
        np.atleast_1d(np.asarray(image_height, dtype=np.float64)),
        np.atleast_1d(np.asarray(samples_in_depth, dtype=np.float64)),
    )
    if np.any(num_tasks < 1) or np.any(cells < 1) or np.any(width < 1) or np.any(height < 1):
        raise ValueError("num_tasks, cells_per_task, and image dimensions must be positive")
    # numpy's array power differs from CPython's scalar ``**`` by one ulp for
    # some inputs (e.g. 127 ** (1/3)), which would let a rounded active-pixel
    # count diverge between the scalar and batch mappings.  The cube root is
    # therefore taken with scalar pow per element (per distinct element in
    # large batches); everything downstream stays vectorized.
    if num_tasks.size < DISTINCT_ROOT_MIN_ROWS:
        task_shrink = _cube_roots(num_tasks)
    else:
        distinct, inverse = np.unique(num_tasks, return_inverse=True)
        task_shrink = _cube_roots(distinct)[inverse]
    pixels = width * height
    active_pixels = np.rint(CAMERA_FILL_FRACTION * pixels / task_shrink)

    objects = np.floor(12.0 * cells * cells if technique.surface else cells**3)
    arrays = {
        "objects": objects,
        "active_pixels": active_pixels,
        "visible_objects": np.zeros_like(active_pixels),
        "pixels_per_triangle": np.zeros_like(active_pixels),
        "samples_per_ray": np.zeros_like(active_pixels),
        "cells_spanned": cells.copy(),
    }
    extras = _FAMILY_EXTRAS[technique.family]
    if "visible_objects" in extras:
        visible = np.minimum(active_pixels, objects)
        arrays["visible_objects"] = visible
        arrays["pixels_per_triangle"] = (
            PIXELS_PER_TRIANGLE_FACTOR * active_pixels / np.maximum(visible, 1.0)
        )
    if "samples_per_ray" in extras:
        scale = samples / 1000.0
        arrays["samples_per_ray"] = SAMPLES_PER_RAY_BASELINE * scale / task_shrink
    return arrays


def feature_arrays(feature_list: list[ObservedFeatures]) -> dict[str, np.ndarray]:
    """Column arrays (float64) for a list of observed features.

    Fitting, cross validation and prediction all consume these: the models'
    term groups (:data:`repro.techniques.MODEL_GROUPS`) build their design
    matrices from the columns.
    """
    return {
        "objects": np.array([float(f.objects) for f in feature_list], dtype=np.float64),
        "active_pixels": np.array([float(f.active_pixels) for f in feature_list], dtype=np.float64),
        "visible_objects": np.array([float(f.visible_objects) for f in feature_list], dtype=np.float64),
        "pixels_per_triangle": np.array(
            [float(f.pixels_per_triangle) for f in feature_list], dtype=np.float64
        ),
        "samples_per_ray": np.array([float(f.samples_per_ray) for f in feature_list], dtype=np.float64),
        "cells_spanned": np.array([float(f.cells_spanned) for f in feature_list], dtype=np.float64),
    }


@dataclass
class CompositingFeatures:
    """Inputs of the compositing model (Eq. 5.5)."""

    average_active_pixels: float
    pixels: int
    num_tasks: int = 1


def compositing_features_from_result(result) -> CompositingFeatures:
    """The Eq. 5.5 model inputs of one parallel composite.

    ``avg(AP)`` comes straight from the compositor's run-length accounting
    (mean active pixels per sub-image, mode-aware activity), so the
    compositing corpus consumes exactly the quantity the fast data path
    compacts and exchanges.  Accepts any object with the
    :class:`repro.compositing.CompositeResult` accounting fields.
    """
    return CompositingFeatures(
        average_active_pixels=float(result.average_active_pixels),
        pixels=int(result.num_pixels),
        num_tasks=int(result.num_tasks),
    )


def contention_features_from_result(result) -> dict[str, float]:
    """Per-round contention descriptors of a composite.

    The run-length engine attaches a compact round summary to every
    :class:`~repro.compositing.CompositeResult` (``round_summary``), from
    ``composite()`` and ``composite_streaming()`` alike; this flattens it
    into scalars a model or report row can consume:

    * ``rounds`` -- communication rounds on the critical path;
    * ``busiest_round_seconds`` -- the single worst per-round link occupancy
      (the term contention adds on top of pure byte counts);
    * ``network_seconds`` -- the Eq. 5.5 critical path (sum over rounds);
    * ``contention_share`` -- fraction of the network estimate spent in the
      busiest round: near ``1/rounds`` for balanced exchanges, approaching 1
      when one fan-in round (e.g. final assembly) dominates.

    Returns all-zero features for results without a round summary (only
    ``engine="reference"``, the oracle, records none).
    """
    summary = getattr(result, "round_summary", None) or []
    if not summary:
        return {
            "rounds": 0.0,
            "busiest_round_seconds": 0.0,
            "network_seconds": float(getattr(result, "network_seconds", 0.0)),
            "contention_share": 0.0,
        }
    per_round = [float(entry["busiest_link_seconds"]) for entry in summary]
    network = sum(per_round)
    busiest = max(per_round)
    return {
        "rounds": float(len(per_round)),
        "busiest_round_seconds": busiest,
        "network_seconds": network,
        "contention_share": busiest / network if network > 0 else 0.0,
    }

"""Model input variables and the configuration-to-variable mapping of Section 5.8.

Domain scientists think of a rendering task in terms of its *configuration* --
architecture, rendering technique, number of MPI tasks, image resolution, and
per-task data size.  The performance models, however, consume the *variable
inputs* O, AP, VO, PPT, SPR, and CS.  One formula body bridges the two exactly
as the paper's mapping does, behind two entries:
:func:`map_configuration_to_features` maps one configuration (Python floats)
and :func:`map_configuration_batch` maps aligned arrays of them.

* ``Objects``: ``12 N^2`` external-face triangles for the surface renderers
  (two triangles per boundary quad on each of the six faces of an ``N^3``
  block), ``N^3`` cells for volume rendering.
* ``Active Pixels``: :func:`active_pixel_estimate` rounded to a whole pixel
  -- a fixed camera fill fraction of the image, divided by the
  :func:`task_shrink`, the cube root of the task count (each direction of
  the block grid shrinks a task's screen footprint).
* ``Visible Objects``: ``min(AP, O)``.
* ``Pixels Per Triangle``: ``4 AP / VO`` -- front and back faces overlap each
  active pixel and the two "other" triangles of each quad also consider the
  pixel before failing their inside test.
* ``Samples Per Ray``: a per-task baseline over the same :func:`task_shrink`.
* ``Cells Spanned``: ``N``.

The constants (camera fill fraction, samples baseline) are module-level and
read only here, at call time, so tests and alternative camera models can
adjust them: the adaptive scorer's compositing candidates and the synthetic
compositing sub-images take their active pixels from
:func:`active_pixel_estimate` too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import inf

import numpy as np

from repro.techniques import ObservedFeatures, Technique, get_technique

__all__ = [
    "RenderingConfiguration",
    "CompositingFeatures",
    "map_configuration_to_features",
    "map_configuration_batch",
    "task_shrink",
    "active_pixel_estimate",
    "feature_arrays",
    "compositing_features_from_result",
    "contention_features_from_result",
    "CAMERA_FILL_FRACTION",
    "SAMPLES_PER_RAY_BASELINE",
    "SAMPLES_IN_DEPTH",
]

#: Fraction of image pixels the default framing camera covers on one task
#: ("Our camera positions filled about 60% of pixels by default" -- the
#: reproduction's framing camera fills a bit less on its smaller scenes).
CAMERA_FILL_FRACTION = 0.55

#: Volume-rendering samples in depth of the paper's full-scale studies: the
#: default of every configuration, and the depth at which a task's samples
#: per ray are :data:`SAMPLES_PER_RAY_BASELINE`.
SAMPLES_IN_DEPTH = 1000

#: Baseline samples-per-ray for a single task at :data:`SAMPLES_IN_DEPTH`
#: samples in depth (373 in the paper's full-scale study); the mapping scales
#: it linearly with a configuration's samples in depth.
SAMPLES_PER_RAY_BASELINE = 373.0

#: How many pixels each visible triangle considers per active pixel it covers
#: (front + back face, plus the two complementary quad triangles that fail
#: their inside test).
PIXELS_PER_TRIANGLE_FACTOR = 4.0

#: Batches of at least this many rows take the cube root once per distinct
#: task count instead of once per row.  Finding the distinct counts costs a
#: fixed ~11 us, more than the per-row roots of a serving group (1-81 rows,
#: median 10, in the ``serve_mixed`` load).  The two break even near 128 rows
#: (timeit, 2-vCPU x86-64, numpy 2.4), and a sweep's 10,000-row, ten-count
#: batch drops from ~1.1 ms to 0.04-0.07 ms.
DISTINCT_ROOT_MIN_ROWS = 128

#: Table slots per row the distinct-root route may spend: whole counts no
#: larger than this many times the batch's rows are found through a table
#: indexed by the count (``np.bincount``).  A slot costs ~3.5 ns, a per-row
#: root ~120 ns, so at this bound the table costs at most ~1.3x the per-row
#: roots (every count distinct) and wins 3-20x at ten distinct counts
#: (timeit, 2-vCPU x86-64, numpy 2.4, 128-10,000 rows).
DISTINCT_ROOT_SLOTS_PER_ROW = 8

#: The Section 5.8 inputs beyond ``O`` / ``AP`` / ``CS`` that each model
#: family's equation consumes and the mapping therefore fills in.
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
        full-scale studies use :data:`SAMPLES_IN_DEPTH`).
    """

    technique: str
    architecture: str
    num_tasks: int
    cells_per_task: int
    image_width: int
    image_height: int
    samples_in_depth: int = SAMPLES_IN_DEPTH

    def __post_init__(self) -> None:
        get_technique(self.technique)
        # Chained comparisons: NaN fails both, like infinity fails the upper bound.
        if not (1 <= self.num_tasks < inf and 1 <= self.cells_per_task < inf):
            raise ValueError("num_tasks and cells_per_task must be positive")
        if not (1 <= self.image_width < inf and 1 <= self.image_height < inf):
            raise ValueError("image dimensions must be positive")
        if not 1 <= self.samples_in_depth < inf:
            raise ValueError("samples_in_depth must be positive")

    @property
    def pixels(self) -> int:
        """Total pixels in the output image."""
        return self.image_width * self.image_height

    @property
    def total_cells(self) -> int:
        """Total cells across all tasks (weak scaling)."""
        return self.num_tasks * self.cells_per_task**3


def task_shrink(num_tasks):
    """How much each direction of the block grid shrinks one task's share of
    the screen and of a ray: the cube root of the task count.

    Takes a number or a float64 array.  numpy's array power differs from
    CPython's scalar ``**`` by one ulp for some inputs (e.g. 127 ** (1/3)),
    which would let a rounded active-pixel count diverge between the two
    mapping entries, so an array takes scalar pow per element.  Batches of
    :data:`DISTINCT_ROOT_MIN_ROWS` rows or more whose counts are whole and at
    most :data:`DISTINCT_ROOT_SLOTS_PER_ROW` times the rows take it once per
    distinct count instead, found through a table indexed by the count; the
    two routes give the same bits.
    """
    if not isinstance(num_tasks, np.ndarray):
        return num_tasks ** (1.0 / 3.0)
    if num_tasks.size < DISTINCT_ROOT_MIN_ROWS:
        return _cube_roots(num_tasks)
    high = num_tasks.max()
    # NaN fails every comparison, so it falls through to the per-row roots.
    if (
        high <= DISTINCT_ROOT_SLOTS_PER_ROW * num_tasks.size
        and 0 <= num_tasks.min()
        and (np.trunc(num_tasks) == num_tasks).all()
    ):
        index = num_tasks.astype(np.intp)
        distinct = np.flatnonzero(np.bincount(index))
        roots = np.zeros(int(high) + 1)
        roots[distinct] = _cube_roots(distinct.astype(np.float64))
        return roots.take(index)
    return _cube_roots(num_tasks)


def _cube_roots(values: np.ndarray) -> np.ndarray:
    return np.array([value ** (1.0 / 3.0) for value in values.tolist()], dtype=np.float64)


def active_pixel_estimate(pixels, shrink):
    """A-priori active pixels of one task, unrounded: the camera fill fraction
    of ``pixels`` over the :func:`task_shrink` ``shrink``.

    Takes numbers or aligned float64 arrays.  The mapping rounds it to AP; the
    compositing scorer and the synthetic compositing sub-images read it as a
    task's ``avg(AP)``.
    """
    return CAMERA_FILL_FRACTION * pixels / shrink


def _mapped_columns(technique: Technique, num_tasks, cells, pixels, samples_in_depth) -> dict:
    """The Section 5.8 mapping: one column per :class:`ObservedFeatures` field.

    Evaluates Python floats (one configuration) or aligned float64 arrays (a
    batch) with the same operations in the same order, so both entries agree
    bit for bit.  Columns outside the technique's family are zero.
    """
    shrink = task_shrink(num_tasks)
    active_pixels = np.rint(active_pixel_estimate(pixels, shrink))
    objects = np.floor(12.0 * cells * cells if technique.surface else cells**3)
    columns = {"objects": objects, "active_pixels": active_pixels, "cells_spanned": np.copy(cells)}
    extras = _FAMILY_EXTRAS[technique.family]
    if "visible_objects" in extras:
        visible = np.minimum(active_pixels, objects)
        columns["visible_objects"] = visible
        columns["pixels_per_triangle"] = PIXELS_PER_TRIANGLE_FACTOR * active_pixels / np.maximum(visible, 1.0)
    if "samples_per_ray" in extras:
        scale = samples_in_depth / SAMPLES_IN_DEPTH
        columns["samples_per_ray"] = SAMPLES_PER_RAY_BASELINE * scale / shrink
    # ``0.0 * AP``, not ``np.zeros_like``, which costs ~3 us a column on a
    # float; the two differ only where AP itself is not finite.
    return {
        item.name: columns[item.name] if item.name in columns else 0.0 * active_pixels
        for item in fields(ObservedFeatures)
    }


def map_configuration_to_features(config: RenderingConfiguration) -> ObservedFeatures:
    """A-priori estimate of the model input variables for a configuration.

    The estimates are intentionally conservative (upper bounds), so that --
    because all fitted coefficients are positive -- predictions made from the
    mapping err on the slow side (Section 5.8, "overestimates lead to
    conservative results").
    """
    columns = _mapped_columns(
        get_technique(config.technique),
        float(config.num_tasks),
        float(config.cells_per_task),
        float(config.pixels),
        float(config.samples_in_depth),
    )
    return ObservedFeatures.from_columns(columns)


def map_configuration_batch(
    technique: str,
    num_tasks: np.ndarray,
    cells_per_task: np.ndarray,
    image_width: np.ndarray,
    image_height: np.ndarray,
    samples_in_depth: np.ndarray | int = SAMPLES_IN_DEPTH,
) -> dict[str, np.ndarray]:
    """Vectorized :func:`map_configuration_to_features` over arrays of configurations.

    All parameters broadcast against each other; the result is a dictionary of
    1-D float64 arrays keyed like :class:`ObservedFeatures` attribute names.
    Element for element the mapping is exactly the scalar one (same rounding,
    same clamps), so the batch :class:`~repro.reporting.predictor.Predictor`
    and the scalar prediction path agree bit for bit.
    """
    technique = get_technique(technique)
    inputs = [
        np.atleast_1d(np.asarray(value, dtype=np.float64))
        for value in (num_tasks, cells_per_task, image_width, image_height, samples_in_depth)
    ]
    # One min and one max per column, before broadcasting: NaN propagates
    # through both and fails the comparisons, and ``initial`` passes an empty
    # batch.
    if not all(1 <= column.min(initial=1.0) and column.max(initial=1.0) < inf for column in inputs):
        raise ValueError("num_tasks, cells_per_task, image dimensions and samples_in_depth must be positive")
    num_tasks, cells, width, height, samples = np.broadcast_arrays(*inputs)
    return _mapped_columns(technique, num_tasks, cells, width * height, samples)


def feature_arrays(feature_list: list[ObservedFeatures]) -> dict[str, np.ndarray]:
    """Column arrays (float64) for a list of observed features.

    Fitting, cross validation and prediction all consume these: the models'
    term groups (:data:`repro.techniques.MODEL_GROUPS`) build their design
    matrices from the columns.
    """
    return {
        item.name: np.array([float(getattr(f, item.name)) for f in feature_list], dtype=np.float64)
        for item in fields(ObservedFeatures)
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

    Both compositing engines attach a compact round summary to every
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

    Returns all-zero features for a result without a round summary (an
    accounting object that is not a ``CompositeResult``).
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

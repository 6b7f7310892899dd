"""The experiment bodies: one function of an :class:`ExperimentSpec` per kind.

Each keeps the paper's Section 5.4 rule -- the slowest task of an experiment
becomes one regression row -- for one spec kind: :func:`run_experiment`
records the measured wall-clock of the sampled rank with the largest observed
workload, rendering on the host only the sampled ranks its pixel bound cannot
rule out; :func:`run_synthetic_experiment` maps the configuration to model
inputs (Section 5.8) and synthesizes times with
:mod:`repro.machines.costmodel` (the substitution documented in DESIGN.md);
and :func:`run_compositing_case` composites synthetic sub-images for one
Eq. 5.5 row.  A spec carries every knob its body reads, so each is a pure
function of the spec (host wall-clock aside).
"""

from __future__ import annotations

import numpy as np

from repro.compositing import Compositor, RunImage, scene_factory
from repro.compositing.scenarios import random_rgba
from repro.dpp import get_device, use_device
from repro.geometry.transforms import Camera
from repro.machines.costmodel import synthesize_render_time
from repro.modeling.features import (
    RenderingConfiguration,
    active_pixel_estimate,
    map_configuration_to_features,
    task_shrink,
)
from repro.modeling.study import HOST_ARCHITECTURE, CompositingRecord, ExperimentRecord
from repro.rendering import make_renderer
from repro.rendering.rays import pixels_reaching
from repro.runtime.decomposition import BlockDecomposition
from repro.simulations.fields import get_simulation_field
from repro.study.plan import ExperimentSpec, require_sampled_ranks
from repro.techniques import get_technique
from repro.util.rng import default_rng, derive_seed

__all__ = [
    "run_experiment",
    "run_synthetic_experiment",
    "run_compositing_case",
]

#: Pixel-blending throughput assumed for the compositing corpus (bytes of
#: exchanged image data blended per second).  The measured Python blending
#: time is dominated by interpreter overhead on the reproduction's small
#: images, so the corpus charges blending at a realistic rate instead and
#: keeps the simulated-network estimate for communication.
COMPOSITING_BLEND_BYTES_PER_SECOND = 2.5e9


def run_experiment(spec: ExperimentSpec) -> ExperimentRecord:
    """Render one host configuration; returns the slowest sampled rank's record.

    The slowest-task proxy is chosen deterministically: the sampled rank with
    the largest observed workload ``(active_pixels, objects)``, the lowest
    rank on a tie.  Selecting by measured wall-clock would make the recorded
    *features* depend on timing jitter, and the corpus would no longer be
    reproducible run to run -- the pool's row-for-row parity with the inline
    executor rests on this choice being a pure function of the spec.

    Only ranks that can be that rank are rendered.  Each sampled rank's
    ``active_pixels`` is bounded from above by the pixel rays that reach its
    block (:func:`~repro.rendering.rays.pixels_reaching`); ranks are visited
    in descending bound, and once a bound is strictly below the best rendered
    ``active_pixels`` that rank and every later one lose the comparison
    whatever they would have rendered, so the row is the one rendering every
    sampled rank yields (DESIGN.md, "Determinism and the serial-oracle
    contract").

    ``spec.dpp_device`` selects the DPP back-end the render's primitives run
    on (``""`` keeps the caller's active device).  An unknown technique,
    simulation or device and a ``max_sampled_ranks`` below 1 (a stale plan
    file or cache entry) all raise before any block is built, which the sweep
    executor records as an ordinary failure row.
    """
    technique = get_technique(spec.technique)
    simulation_field = get_simulation_field(spec.simulation)
    ranks = _sampled_ranks(spec.num_tasks, require_sampled_ranks(spec.max_sampled_ranks))
    decomposition = BlockDecomposition(spec.num_tasks, spec.cells_per_task)
    camera = Camera.framing_bounds(
        decomposition.global_bounds, spec.image_width, spec.image_height
    )

    slowest, slowest_key = None, (-1, 0, 0)  # below every bound: the first visit renders
    with use_device(spec.dpp_device or get_device().name) as device:
        boxes = [decomposition.block_bounds(rank) for rank in ranks]
        # A single sampled rank is rendered whatever its bound.
        bounds = pixels_reaching(camera, boxes) if len(boxes) > 1 else [0]
        for position in sorted(range(len(ranks)), key=lambda index: (-bounds[index], index)):
            if bounds[position] < slowest_key[0]:
                break
            grid = decomposition.block_grid_with_field(ranks[position], "scalar", simulation_field)
            result = make_renderer(technique.name, grid, "scalar", spec.samples_in_depth).render(camera)
            key = (result.features.active_pixels, result.features.objects, -position)
            if key > slowest_key:
                slowest, slowest_key = result, key

    phases = dict(slowest.phase_seconds)
    build = phases.get("bvh_build", 0.0)
    return ExperimentRecord(
        architecture=HOST_ARCHITECTURE,
        technique=spec.technique,
        simulation=spec.simulation,
        num_tasks=spec.num_tasks,
        cells_per_task=spec.cells_per_task,
        image_width=spec.image_width,
        image_height=spec.image_height,
        features=slowest.features,
        phase_seconds=phases,
        build_seconds=build,
        frame_seconds=slowest.total_seconds - build,
        samples_in_depth=spec.samples_in_depth,
        dpp_device=device.name,
    )


def _sampled_ranks(num_tasks: int, max_sampled_ranks: int) -> list[int]:
    """Evenly spaced subset of ranks considered for the slowest-task proxy."""
    count = min(max_sampled_ranks, num_tasks)
    if count == num_tasks:
        return list(range(num_tasks))
    return sorted({int(round(index)) for index in np.linspace(0, num_tasks - 1, count)})


def run_synthetic_experiment(spec: ExperimentSpec) -> ExperimentRecord:
    """Synthesize one full-scale experiment for a non-host architecture.

    Inputs come from the Section 5.8 mapping (no rendering is needed) and
    per-phase times from :mod:`repro.machines.costmodel` with measurement
    noise, reproducing the corpus the paper gathered on its GPUs.

    The noise stream is derived from the study seed plus every config key
    of the experiment, never shared between experiments, so the record is
    a pure function of the spec -- executing the sweep in any order (or on
    any process pool) yields bit-identical synthetic rows.

    The simulation is only a label here, but an unknown one (a stale plan
    or cache entry) raises as on the render path: no mislabelled row.
    """
    get_simulation_field(spec.simulation)
    rng = default_rng(
        spec.base_seed,
        "synthetic-experiment",
        spec.architecture,
        spec.technique,
        spec.simulation,
        spec.num_tasks,
        spec.cells_per_task,
        spec.image_width,
        spec.image_height,
    )
    features = map_configuration_to_features(
        RenderingConfiguration(
            technique=spec.technique,
            architecture=spec.architecture,
            num_tasks=spec.num_tasks,
            cells_per_task=spec.cells_per_task,
            image_width=spec.image_width,
            image_height=spec.image_height,
            samples_in_depth=spec.synthetic_samples_in_depth,
        )
    )
    phases = synthesize_render_time(spec.architecture, spec.technique, features, rng)
    return ExperimentRecord(
        architecture=spec.architecture,
        technique=spec.technique,
        simulation=spec.simulation,
        num_tasks=spec.num_tasks,
        cells_per_task=spec.cells_per_task,
        image_width=spec.image_width,
        image_height=spec.image_height,
        features=features,
        phase_seconds=phases,
        build_seconds=phases.get("bvh_build", 0.0),
        frame_seconds=sum(seconds for name, seconds in phases.items() if name != "bvh_build"),
        samples_in_depth=spec.synthetic_samples_in_depth,
    )


def run_compositing_case(spec: ExperimentSpec) -> CompositingRecord:
    """One row of the Eq. 5.5 corpus: composite ``spec.num_tasks`` synthetic sub-images.

    Per-rank sub-images are synthesized (a contiguous screen block of
    active pixels per rank whose size follows the Section 5.8 mapping)
    rather than rendered, so that large task counts stay cheap.  Both sides
    of ``spec.compositing_max_live_ranks`` are :class:`RunImage` factories
    into :meth:`Compositor.composite_streaming`: at or under the budget a
    list of block images built straight in run-length form (no framebuffer
    is filled and re-scanned), all live at once; over it the scenario's
    per-rank factory, streamed in bounded cohorts.  The recorded
    compositing time combines the simulated-network estimate of the
    exchange (critical path over rounds) with the blending work charged
    at :data:`COMPOSITING_BLEND_BYTES_PER_SECOND`.

    Like the synthetic render experiments, the sub-image stream is seeded
    per configuration (study seed + algorithm + tasks + size), so the row
    is a pure function of the spec regardless of sweep order.
    """
    algorithm, num_tasks, pixel_size = spec.algorithm, spec.num_tasks, spec.pixel_size
    stream = (spec.base_seed, "compositing-sweep", algorithm, num_tasks, pixel_size)
    radices = None
    if algorithm == "radix-k" and spec.compositing_radices:
        radices = list(spec.compositing_radices)
    compositor = Compositor(algorithm, radices=radices)
    if num_tasks > spec.compositing_max_live_ranks:
        # Thousand-rank rows: stream per-rank images through the cohort
        # scheduler instead of materializing the whole population.
        factory = scene_factory(
            spec.compositing_scenario,
            num_tasks,
            pixel_size,
            pixel_size,
            mode="over",
            seed=derive_seed(*stream),
        )
        max_live_ranks = spec.compositing_max_live_ranks
    else:
        images = _synthetic_run_images(num_tasks, pixel_size, pixel_size, default_rng(*stream))
        factory, max_live_ranks = images.__getitem__, num_tasks
    result = compositor.composite_streaming(
        factory, num_tasks, pixel_size, pixel_size, mode="over", max_live_ranks=max_live_ranks
    )
    # Blending happens concurrently on every rank, so charge the per-rank
    # share of the exchanged bytes (the critical path), not the total.
    blend_seconds = (
        result.bytes_exchanged / max(num_tasks, 1) / COMPOSITING_BLEND_BYTES_PER_SECOND
    )
    return CompositingRecord.from_result(
        result, seconds=result.network_seconds + blend_seconds, algorithm=algorithm
    )


def _synthetic_run_images(
    tasks: int, width: int, height: int, rng: np.random.Generator
) -> list[RunImage]:
    """Synthetic per-rank ``"over"`` sub-images with mapping-consistent active-pixel counts.

    Rank ``i`` covers one random square block of the screen; the block's
    pixels are its active pixels, its colors are random with alpha 0.7, and
    its depth is the visibility key ``i``.  The stream also draws a depth
    plane per block that ``"over"`` compositing never reads: skipping it
    would move every later rank's block and change the corpus rows.
    """
    images = []
    active = max(int(active_pixel_estimate(width * height, task_shrink(tasks))), 1)
    side = max(int(np.sqrt(active)), 1)
    for rank in range(tasks):
        x0 = int(rng.integers(0, max(width - side, 1)))
        y0 = int(rng.integers(0, max(height - side, 1)))
        x1, y1 = min(x0 + side, width), min(y0 + side, height)
        pixels = (np.arange(y0, y1, dtype=np.int64)[:, None] * width + np.arange(x0, x1)).reshape(-1)
        count = len(pixels)
        rgba = random_rgba(rng, count, 0.7)
        rng.random(count)  # the unread depth plane
        images.append(RunImage(width, height, pixels, rgba, np.full(count, float(rank)), key=rank))
    return images

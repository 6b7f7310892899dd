"""The compositing corpus's synthesized sub-images, built straight in run-length form.

``run_compositing_case`` synthesizes each rank's ``"over"`` sub-image as a
:class:`RunImage` directly from its screen block.  The oracle here is the
framebuffer route it replaced: fill a full RGBA + depth framebuffer per rank
from the same stream, then compact it with ``run_image_from_framebuffer`` (what
``Compositor.composite`` does).  The two must agree byte for byte, image by
image and row by row, which pins every random draw: a skipped or reordered
draw moves the next rank's block or colors.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compositing import Compositor, run_image_from_framebuffer, scene_factory
from repro.modeling.study import CompositingRecord
from repro.rendering import Framebuffer
from repro.study import experiments
from repro.study.plan import ExperimentSpec
from repro.util.rng import default_rng, derive_seed


def _synthetic_sub_images(
    tasks: int, width: int, height: int, rng: np.random.Generator
) -> list[Framebuffer]:
    """The oracle: synthetic per-rank framebuffers with mapping-consistent active-pixel counts."""
    framebuffers = []
    fill = 0.55 / tasks ** (1.0 / 3.0)
    active = max(int(fill * width * height), 1)
    side = max(int(np.sqrt(active)), 1)
    for _ in range(tasks):
        framebuffer = Framebuffer(width, height)
        x0 = int(rng.integers(0, max(width - side, 1)))
        y0 = int(rng.integers(0, max(height - side, 1)))
        block = (slice(y0, min(y0 + side, height)), slice(x0, min(x0 + side, width)))
        shape = framebuffer.rgba[block][..., 0].shape
        framebuffer.rgba[block] = np.concatenate(
            [rng.random(shape + (3,)), np.full(shape + (1,), 0.7)], axis=-1
        )
        framebuffer.depth[block] = rng.random(shape) * 10.0
        framebuffers.append(framebuffer)
    return framebuffers


def _framebuffer_of(image) -> Framebuffer:
    """Scatter a run-length image back into a full framebuffer."""
    framebuffer = Framebuffer(image.width, image.height)
    framebuffer.rgba.reshape(-1, 4)[image.pixels] = image.rgba
    framebuffer.depth.reshape(-1)[image.pixels] = image.depth
    return framebuffer


def _framebuffer_row(spec: ExperimentSpec, framebuffers: list[Framebuffer]) -> CompositingRecord:
    """The corpus row of ``spec`` composited from dense framebuffers through ``composite()``."""
    radices = list(spec.compositing_radices) if spec.compositing_radices else None
    compositor = Compositor(spec.algorithm, radices=radices)
    visibility = list(np.arange(spec.num_tasks, dtype=np.float64))
    result = compositor.composite(framebuffers, mode="over", visibility_order=visibility)
    blend = result.bytes_exchanged / spec.num_tasks / experiments.COMPOSITING_BLEND_BYTES_PER_SECOND
    return CompositingRecord.from_result(
        result, seconds=result.network_seconds + blend, algorithm=spec.algorithm
    )


def _stream(seed: int, tasks: int, size: int) -> tuple:
    return (seed, "compositing-sweep", "radix-k", tasks, size)


@pytest.mark.parametrize("seed", [2016, 90210])
@pytest.mark.parametrize("size", [16, 24, 48, 50])
@pytest.mark.parametrize("tasks", [1, 2, 7, 16, 64, 256])
def test_direct_run_images_equal_the_compacted_framebuffers(tasks, size, seed):
    stream = _stream(seed, tasks, size)
    direct = experiments._synthetic_run_images(tasks, size, size, default_rng(*stream))
    oracle = _synthetic_sub_images(tasks, size, size, default_rng(*stream))
    assert len(direct) == len(oracle) == tasks
    for rank, (image, framebuffer) in enumerate(zip(direct, oracle)):
        expected = run_image_from_framebuffer(framebuffer, "over", key=rank)
        assert (image.width, image.height, image.key) == (size, size, rank)
        for plane in ("pixels", "rgba", "depth"):
            got, want = getattr(image, plane), getattr(expected, plane)
            assert got.dtype == want.dtype and got.shape == want.shape, (rank, plane)
            assert got.tobytes() == want.tobytes(), (rank, plane)


def test_the_stream_ends_where_the_framebuffer_route_ends():
    # The unread depth plane is still drawn: after the last rank both
    # generators stand at the same state.
    stream = _stream(2016, 7, 24)
    direct_rng, oracle_rng = default_rng(*stream), default_rng(*stream)
    experiments._synthetic_run_images(7, 24, 24, direct_rng)
    _synthetic_sub_images(7, 24, 24, oracle_rng)
    assert direct_rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("algorithm", ["direct-send", "binary-swap", "radix-k"])
@pytest.mark.parametrize("seed", [2016, 90210])
def test_rows_on_both_sides_of_the_budget_match_the_framebuffer_route(algorithm, seed):
    budget = 8
    for tasks, size in ((1, 24), (7, 24), (8, 50), (16, 48), (32, 16)):
        spec = ExperimentSpec(
            kind="compositing",
            base_seed=seed,
            algorithm=algorithm,
            num_tasks=tasks,
            pixel_size=size,
            compositing_max_live_ranks=budget,
            compositing_scenario="uniform",
        )
        stream = (seed, "compositing-sweep", algorithm, tasks, size)
        if tasks <= budget:
            framebuffers = _synthetic_sub_images(tasks, size, size, default_rng(*stream))
        else:
            factory = scene_factory("uniform", tasks, size, size, mode="over", seed=derive_seed(*stream))
            framebuffers = [_framebuffer_of(factory(rank)) for rank in range(tasks)]
        row = experiments.run_compositing_case(spec)
        assert row == _framebuffer_row(spec, framebuffers), (tasks, size)
        # Moving the budget across the row changes nothing for an in-budget row.
        if tasks <= budget:
            raised = dataclasses.replace(spec, compositing_max_live_ranks=256)
            assert experiments.run_compositing_case(raised) == row

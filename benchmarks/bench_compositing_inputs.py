"""Compositing-input floor: synthesizing a sub-image in run-length form beats filling a framebuffer.

One same-run ratio: the time to make 64 ranks' 48x48 ``"over"`` sub-images
through the framebuffer route -- fill a full RGBA + depth framebuffer per rank
(the test oracle ``_synthetic_sub_images``), then compact each one with
``run_image_from_framebuffer`` as ``Compositor.composite`` does -- over the
time ``run_compositing_case`` takes to build the same images straight from
their blocks.  Both routes draw the same stream and yield byte-equal images;
the framebuffer route also writes and rescans every empty pixel, so the ratio
grows with the image (3.3-4.6x at 48^2 over ten runs, 5.7-7.9x at 128^2, on a
2-vCPU x86-64 VM).

    PYTHONPATH=src python -m pytest benchmarks/bench_compositing_inputs.py -m perf -s
"""

from __future__ import annotations

import importlib.util
import statistics
import time
from pathlib import Path

import pytest

from repro.compositing import run_image_from_framebuffer
from repro.study import experiments
from repro.util.rng import default_rng

# The framebuffer route lives only in the test suite, as the oracle; load that
# module by its path rather than putting tests/ on sys.path.
_ORACLE_PATH = Path(__file__).resolve().parents[1] / "tests" / "test_compositing_synthesis.py"
_spec = importlib.util.spec_from_file_location("compositing_synthesis_oracle", _ORACLE_PATH)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)
_synthetic_sub_images = _oracle._synthetic_sub_images

#: Least the framebuffer route may cost, as a multiple of the direct synthesis.
FRAMEBUFFER_OVER_DIRECT_FLOOR = 1.5

RANKS = 64
SIZE = 48


def measure_framebuffer_over_direct(repeats: int = 5) -> float:
    """Framebuffer-route synthesis time over direct synthesis time: median of ``repeats``."""
    stream = (2016, "compositing-sweep", "radix-k", RANKS, SIZE)
    ratios = []
    for _ in range(repeats):
        start = time.perf_counter()
        framebuffers = _synthetic_sub_images(RANKS, SIZE, SIZE, default_rng(*stream))
        compacted = [run_image_from_framebuffer(fb, "over", key=rank) for rank, fb in enumerate(framebuffers)]
        framebuffer_seconds = time.perf_counter() - start
        start = time.perf_counter()
        direct = experiments._synthetic_run_images(RANKS, SIZE, SIZE, default_rng(*stream))
        direct_seconds = time.perf_counter() - start
        if [image.rgba.tobytes() for image in direct] != [image.rgba.tobytes() for image in compacted]:
            raise RuntimeError("the two synthesis routes disagree")
        ratios.append(framebuffer_seconds / direct_seconds)
    return statistics.median(ratios)


@pytest.mark.perf
def test_direct_synthesis_beats_the_framebuffer_route():
    ratio = measure_framebuffer_over_direct()
    print(f"\nframebuffer/direct synthesis {ratio:.2f}x (floor {FRAMEBUFFER_OVER_DIRECT_FLOOR})")
    assert ratio >= FRAMEBUFFER_OVER_DIRECT_FLOOR, (
        f"framebuffer/direct {ratio:.2f}x is under {FRAMEBUFFER_OVER_DIRECT_FLOOR}x"
    )

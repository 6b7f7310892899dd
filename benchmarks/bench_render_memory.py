"""Volume-render memory floor: a render's temporaries stay within the sample budget.

Two traced peaks, one per volume family: ``tracemalloc``'s peak over building
and running the renderer of the largest 1-task spec of a full-scale
``sweep_render`` repetition -- the structured caster at 150^2 pixels over 16^3
cells, the tet caster at 66^2 over 8^3 cells, 60 samples in depth.  Before the
kernels ran in blocks of :data:`repro.rendering.volume.budget.SAMPLE_BUDGET`
samples the structured slab held lanes x ``structured.SAMPLE_CHUNK`` (32)
samples at once and the tet caster's column-span phase ran over every pixel
column of the frame; these read 76.3 and 51.4 MB.  Blocked, they read 17.6
and 13.0 MB.  Traced bytes count numpy's allocations, not the machine's, so
the head-room under the ceiling is for numpy versions, not for noise.

    PYTHONPATH=src python -m pytest benchmarks/bench_render_memory.py -m perf -s
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.geometry.transforms import Camera
from repro.rendering import make_renderer
from repro.runtime.decomposition import BlockDecomposition
from repro.simulations.fields import get_simulation_field

#: Largest traced peak one 1-task volume render may reach.
PEAK_CEILING_MB = 24.0

#: ``(technique, image edge, cells per task)`` of the two measured renders.
RENDERS = (("volume", 150, 16), ("volume_unstructured", 66, 8))

SAMPLES_IN_DEPTH = 60


def traced_peak_mb(technique: str, size: int, cells: int) -> float:
    """Traced peak of building and running one 1-task render, in MB."""
    decomposition = BlockDecomposition(1, cells)
    grid = decomposition.block_grid_with_field(0, "scalar", get_simulation_field("kripke"))
    camera = Camera.framing_bounds(decomposition.global_bounds, size, size)
    tracemalloc.start()
    try:
        make_renderer(technique, grid, "scalar", SAMPLES_IN_DEPTH).render(camera)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


@pytest.mark.perf
@pytest.mark.parametrize("technique, size, cells", RENDERS)
def test_volume_render_stays_within_the_sample_budget(technique, size, cells):
    peak = traced_peak_mb(technique, size, cells)
    print(f"\n{technique} 1 task at {size}^2, {cells}^3 cells: traced peak {peak:.1f} MB")
    assert peak <= PEAK_CEILING_MB, f"{technique} traced {peak:.1f} MB > {PEAK_CEILING_MB} MB"

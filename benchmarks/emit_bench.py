"""Emit the repo's rendering perf trajectory record (``BENCH_render.json``).

Usage (from the repository root):

    PYTHONPATH=src python -m benchmarks.emit_bench [output.json]

Covers both hot paths of the frontier kernel engine:

* **raytracer** -- the traversal-throughput benchmark (WORKLOAD1-3 at 96^2
  and 192^2 over the rm-family scene subset), verified differentially
  against the brute-force intersector, with the recorded seed-engine
  baseline and speedups.
* **volume** -- the structured and unstructured volume casters at 96^2 and
  192^2 over the Table 6 scene pool, verified against (and timed against)
  the pre-refactor monolithic loops each renderer keeps in-tree as
  ``render_reference``.
* **compositing** -- the run-length sort-last compositing engine at 64-256
  simulated ranks and 256^2 pixels with all three exchange algorithms
  (direct-send, binary-swap, radix-k), verified against and timed against
  the dense per-run drivers kept in-tree as ``composite_reference``.
* **compositing_scale** -- the same driver at 1,024 and 4,096 simulated
  ranks under a 256-image live budget (ranks/s plus the 1k peak traced
  allocation), where the reference no longer fits; bit-exactness against
  the oracle and across budgets is pinned by the tier-1 suite rather than
  re-verified here.

The record supersedes the ray-tracing-only ``BENCH_raytracer.json`` of PR 1.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
if str(_BENCH_DIR) not in sys.path:  # allow `python -m benchmarks.emit_bench`
    sys.path.insert(0, str(_BENCH_DIR))

import numpy as np

import bench_compositing_scale as scale_bench
import bench_compositing_throughput as compositing_bench
import bench_table05_backend_comparison as device_bench
import bench_traversal_throughput as raytracer_bench
import bench_volume_throughput as volume_bench


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    output = Path(argv[0]) if argv else _BENCH_DIR.parent / "BENCH_render.json"
    if not output.parent.is_dir():
        print(f"error: output directory {output.parent} does not exist", file=sys.stderr)
        return 2

    # Compositing first: its fast-vs-reference ratio is the most
    # state-sensitive measurement, so take it before the render verifications
    # and sweeps churn the allocator.
    print("verifying the run-length compositing engine against composite_reference ...")
    compositing_bench.verify_compositing_differential()
    print("measuring compositing throughput ...")
    compositing_speedups = compositing_bench.measure_reference_speedups()
    compositing_results = compositing_bench.measure_all()
    print("measuring streaming compositing at scale (1k-4k ranks) ...")
    scale_results = scale_bench.measure_scale_section()
    print("verifying traversal engine against brute force on every pool scene ...")
    raytracer_bench.verify_pool_differential()
    print("verifying volume engines against the pre-refactor reference loops ...")
    volume_bench.verify_volume_differential()
    print("measuring ray-tracing throughput ...")
    raytracer_results = raytracer_bench.measure_all()
    print("measuring volume throughput ...")
    volume_results = volume_bench.measure_all()
    print("measuring DPP device back-ends ...")
    device_results = device_bench.measure_all_devices()

    record = {
        "benchmark": "render_throughput",
        "units": "Mrays/s",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "raytracer": {
            "scenes": "surface_scene_pool()[0:3] (rm family)",
            "seed_baseline": raytracer_bench.SEED_BASELINE_MRAYS,
            "current": {
                key: round(value["mrays_per_s"], 4)
                for key, value in raytracer_results.items()
            },
            "speedup_vs_seed": {
                key: round(value["mrays_per_s"] / raytracer_bench.SEED_BASELINE_MRAYS[key], 2)
                for key, value in raytracer_results.items()
            },
            "detail": {
                key: {"rays": value["rays"], "seconds": round(value["seconds"], 4)}
                for key, value in raytracer_results.items()
            },
        },
        "volume": {
            "scenes": "volume_dataset_pool() (Table 6 pool)",
            "seed_baseline": {
                key: round(value["seed_mrays_per_s"], 4)
                for key, value in volume_results.items()
            },
            "current": {
                key: round(value["mrays_per_s"], 4)
                for key, value in volume_results.items()
            },
            "speedup_vs_seed": {
                key: round(value["speedup_vs_seed"], 2)
                for key, value in volume_results.items()
            },
            "detail": {
                key: {
                    "rays": value["rays"],
                    "seconds": round(value["seconds"], 4),
                    "seed_seconds": round(value["seed_seconds"], 4),
                }
                for key, value in volume_results.items()
            },
        },
        "compositing": {
            "scenes": "synthetic sort-last sub-images (Section 5.8 fill), over mode",
            "units": "seconds per composite at 256^2",
            "current": {
                key: round(value["seconds"], 4) for key, value in compositing_results.items()
            },
            "speedup_vs_reference_64": {
                algorithm: round(entry["speedup"], 2)
                for algorithm, entry in compositing_speedups["per_algorithm"].items()
            },
            "aggregate_speedup_vs_reference_64": round(
                compositing_speedups["aggregate_speedup"], 2
            ),
            "detail": {
                key: {
                    "tasks": value["tasks"],
                    "pixels": value["pixels"],
                    "mpixels_per_s": round(value["mpixels_per_s"], 2),
                    "bytes_exchanged": value["bytes_exchanged"],
                    "messages": value["messages"],
                    "merge_operations": value["merge_operations"],
                    "average_active_pixels": round(value["average_active_pixels"], 1),
                }
                for key, value in compositing_results.items()
            },
        },
        "compositing_scale": {
            "scenes": "scene_factory('uniform'), depth mode, 128^2, composite_streaming",
            "units": "ranks/s (peak_memory_bytes: lower is better)",
            "current": scale_results,
        },
        "device_comparison": {
            "scenes": "stream-compaction + segmented_argmin idioms, 200k elements",
            "units": "M elements/s",
            "devices": sorted(device_results),
            "current": {
                f"{name}_{metric}": round(value, 4)
                for name, metrics in device_results.items()
                for metric, value in metrics.items()
            },
            "speedup_vs_serial": {
                name: round(
                    metrics["compaction_mops"]
                    / device_results["serial"]["compaction_mops"],
                    2,
                )
                for name, metrics in device_results.items()
            },
        },
    }
    output.write_text(json.dumps(record, indent=2) + "\n")
    for section in ("raytracer", "volume"):
        print(f"[{section}]")
        for key, value in record[section]["current"].items():
            speedup = record[section]["speedup_vs_seed"][key]
            print(f"  {key:24s} {value:8.4f} Mrays/s  ({speedup}x seed)")
    print("[compositing]")
    for key, value in record["compositing"]["current"].items():
        print(f"  {key:24s} {value:8.4f} s/composite")
    aggregate = record["compositing"]["aggregate_speedup_vs_reference_64"]
    print(f"  aggregate speedup vs composite_reference at 64 ranks: {aggregate}x")
    print("[compositing_scale]")
    for key, value in record["compositing_scale"]["current"].items():
        print(f"  {key:36s} {value:14.2f}")
    print("[device_comparison]")
    for key, value in record["device_comparison"]["current"].items():
        print(f"  {key:36s} {value:10.4f} M elements/s")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

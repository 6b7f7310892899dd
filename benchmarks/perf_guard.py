"""Smoke perf-regression guard against the checked-in BENCH records.

Re-measures a CI-sized subset of the render-throughput trajectory (the 96^2
workloads, the structured volume caster, and 64-rank compositing, from
``BENCH_render.json``) plus the prediction-serving tier's smoke load (from
``BENCH_serving.json``) and fails when any number regresses by more than the
tolerance (default 30%) against the records' ``current`` sections:

    python -m benchmarks.perf_guard [--tolerance 0.30] [--against BENCH_render.json]
                                    [--against-serving BENCH_serving.json]

Throughput sections (``raytracer``, ``volume``, Mrays/s) regress *down*;
the ``compositing`` section (seconds per composite) regresses *up*.  The
``compositing_scale`` and ``serving`` sections mix directions per key -- predictions/sec falls, p99
latency rises -- so :data:`HIGHER_IS_BETTER` values are either a bool for a
whole section or a per-key dict.  The comparison logic
(:func:`compare_sections`) is pure and unit-tested; only ``measure_smoke``
touches wall clocks.

The study control plane is guarded differently: two same-run A/B ratios
(:func:`measure_control_plane` -- the sweep engine's wall over a bare
``execute_spec`` loop on the same specs) against fixed ceilings
(:data:`CONTROL_PLANE_CEILINGS`).  A ratio of two timings of one run needs no
recorded baseline and no machine constant.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
if str(_BENCH_DIR) not in sys.path:  # allow `python -m benchmarks.perf_guard`
    sys.path.insert(0, str(_BENCH_DIR))

__all__ = [
    "SMOKE_KEYS",
    "HIGHER_IS_BETTER",
    "CONTROL_PLANE_CEILINGS",
    "compare_sections",
    "ceiling_rows",
    "measure_smoke",
    "measure_control_plane",
    "main",
]

#: The CI-sized measurement subset: one image size / rank count per section.
SMOKE_KEYS = {
    "raytracer": ("intersection_only_96", "shading_96", "full_96"),
    "volume": ("structured_96", "unstructured_96"),
    "compositing": ("direct-send_64", "binary-swap_64", "radix-k_64"),
    "compositing_scale": (
        "binary-swap_1024_ranks_per_s",
        "radix-k_1024_ranks_per_s",
        "binary-swap_4096_ranks_per_s",
        "binary-swap_1024_peak_memory_bytes",
    ),
    "serving": ("smoke_predictions_per_s", "smoke_p99_ms"),
    # Only the vectorized device is guarded: serial throughput is a
    # reference measurement, and optional back-ends (jax) are absent from
    # most CI runners.
    "device_comparison": ("vectorized_compaction_mops", "vectorized_segmented_argmin_mops"),
}

#: Regression direction: a bool for a whole section, or a per-key dict when a
#: section mixes directions (serving throughput falls, latency rises).
HIGHER_IS_BETTER = {
    "raytracer": True,
    "volume": True,
    "compositing": False,
    "compositing_scale": {
        "binary-swap_1024_ranks_per_s": True,
        "radix-k_1024_ranks_per_s": True,
        "binary-swap_4096_ranks_per_s": True,
        "binary-swap_1024_peak_memory_bytes": False,
    },
    "serving": {"smoke_predictions_per_s": True, "smoke_p99_ms": False},
    "device_comparison": True,
}


#: Most the engine may cost, as a multiple of the work it schedules: the wall of
#: ``run_plan`` (cold cache) over a 640-spec all-synthetic plan divided by a bare
#: ``[execute_spec(s) for s in plan.specs]`` loop, in-process and on a 2-worker pool.
CONTROL_PLANE_CEILINGS = {"inline_over_bare": 5.0, "pool_over_bare": 9.0}


def compare_sections(
    baseline: dict, measured: dict[str, dict[str, float]], tolerance: float
) -> list[dict]:
    """Compare measured smoke numbers against a BENCH record; pure function.

    ``baseline`` is the parsed ``BENCH_render.json``; ``measured`` maps
    section name to ``{key: value}``.  Returns one row per measured key with
    ``regression`` (fractional, positive = worse) and ``regressed`` (True when
    the regression exceeds ``tolerance``).  Keys absent from the baseline are
    reported with ``regressed=False`` and a note -- a freshly added benchmark
    must not fail the guard before the record is regenerated.
    """
    rows = []
    for section, values in measured.items():
        direction = HIGHER_IS_BETTER[section]
        current = baseline.get(section, {}).get("current", {})
        for key, value in values.items():
            higher_better = direction if isinstance(direction, bool) else direction[key]
            if key not in current:
                rows.append(
                    {
                        "section": section,
                        "key": key,
                        "baseline": None,
                        "measured": value,
                        "regression": 0.0,
                        "regressed": False,
                        "note": "no baseline entry",
                    }
                )
                continue
            base = float(current[key])
            if higher_better:
                regression = (base - value) / base
            else:
                regression = (value - base) / base
            rows.append(
                {
                    "section": section,
                    "key": key,
                    "baseline": base,
                    "measured": value,
                    "regression": regression,
                    "regressed": regression > tolerance,
                    "note": "",
                }
            )
    return rows


def ceiling_rows(measured: dict[str, float], ceilings: dict[str, float]) -> list[dict]:
    """One row per same-run ratio, in :func:`compare_sections`'s shape; pure function.

    The ceiling stands where a baseline would; ``regressed`` is crossing it.
    """
    return [
        {
            "section": "control_plane",
            "key": key,
            "baseline": ceiling,
            "measured": measured[key],
            "regression": (measured[key] - ceiling) / ceiling,
            "regressed": measured[key] > ceiling,
            "note": "same-run ratio vs ceiling",
        }
        for key, ceiling in ceilings.items()
    ]


def measure_control_plane(repeats: int = 5) -> dict[str, float]:
    """Sweep-engine wall over a bare spec loop: median of ``repeats`` same-run ratios.

    Each repeat times the three passes back to back, starting one place further
    round the cycle than the last, so that no pass always runs first.
    """
    from repro.modeling.study import StudyConfiguration
    from repro.study import build_plan, execute_spec, run_plan

    config = StudyConfiguration(
        architectures=("gpu1-k40m", "gpu-p100", "gpu-v100", "gpu-a100"),
        techniques=("raytrace", "raster", "volume", "volume_unstructured"),
        samples_per_technique=40,
    )
    plan = build_plan(config, include_compositing=False)
    if plan.counts()["synthetic"] != 640 or len(plan) != 640:
        raise RuntimeError(f"expected 640 synthetic specs, planned {plan.counts()}")

    def sweep(jobs: int) -> None:
        with tempfile.TemporaryDirectory(prefix="perf-guard-cache-") as root:
            _corpus, report = run_plan(plan, jobs=jobs, cache=root, resume=False)
        if report.executed != 640 or report.failed:
            raise RuntimeError(f"control-plane sweep did not execute every spec: {report.as_dict()}")

    passes = {
        "bare": lambda: [execute_spec(spec) for spec in plan.specs],
        "inline": lambda: sweep(1),
        "pool": lambda: sweep(2),
    }
    passes["bare"]()  # imports and lazy tables, outside every timing
    names = list(passes)
    ratios: dict[str, list[float]] = {key: [] for key in CONTROL_PLANE_CEILINGS}
    for repeat in range(repeats):
        seconds = {}
        for name in names[repeat % 3 :] + names[: repeat % 3]:
            start = time.perf_counter()
            passes[name]()
            seconds[name] = time.perf_counter() - start
        ratios["inline_over_bare"].append(seconds["inline"] / seconds["bare"])
        ratios["pool_over_bare"].append(seconds["pool"] / seconds["bare"])
    return {key: statistics.median(values) for key, values in ratios.items()}


def measure_smoke() -> dict[str, dict[str, float]]:
    """Measure the smoke subset (the only wall-clock-touching function here)."""
    import bench_compositing_throughput as compositing_bench
    import bench_traversal_throughput as raytracer_bench
    import bench_volume_throughput as volume_bench
    from common import surface_scene_pool
    from repro.rendering import Workload

    import bench_serving_throughput as serving_bench

    pool = surface_scene_pool()[raytracer_bench.POOL_SLICE]
    workloads = {
        "intersection_only_96": Workload.INTERSECTION_ONLY,
        "shading_96": Workload.SHADING,
        "full_96": Workload.FULL,
    }
    measured: dict[str, dict[str, float]] = {"raytracer": {}, "volume": {}, "compositing": {}}
    for key in SMOKE_KEYS["raytracer"]:
        measured["raytracer"][key] = raytracer_bench.measure_workload(workloads[key], 96, pool)[
            "mrays_per_s"
        ]
    for key in SMOKE_KEYS["volume"]:
        kind = key.rsplit("_", 1)[0]
        measured["volume"][key] = volume_bench.measure_family(kind, 96)["mrays_per_s"]
    for key in SMOKE_KEYS["compositing"]:
        algorithm, tasks = key.rsplit("_", 1)
        measured["compositing"][key] = compositing_bench.measure_algorithm(
            algorithm, int(tasks), 256
        )["seconds"]
    import bench_compositing_scale as scale_bench

    measured["compositing_scale"] = dict(scale_bench.measure_scale_section())
    measured["serving"] = dict(serving_bench.measure_smoke_serving())
    import bench_table05_backend_comparison as device_bench

    vectorized = device_bench.measure_device("vectorized")
    measured["device_comparison"] = {
        f"vectorized_{metric}": value for metric, value in vectorized.items()
    }
    return measured


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf_guard",
        description="Fail when smoke benchmark numbers regress against BENCH_render.json.",
    )
    parser.add_argument(
        "--against", default=str(_BENCH_DIR.parent / "BENCH_render.json"), help="baseline record"
    )
    parser.add_argument(
        "--against-serving",
        default=str(_BENCH_DIR.parent / "BENCH_serving.json"),
        help="serving-tier baseline record",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30, help="allowed fractional regression (default 0.30)"
    )
    args = parser.parse_args(argv)

    with open(args.against, encoding="utf-8") as handle:
        baseline = json.load(handle)
    serving_record = Path(args.against_serving)
    if serving_record.exists():
        with open(serving_record, encoding="utf-8") as handle:
            baseline["serving"] = json.load(handle).get("serving", {})
    print(f"measuring smoke subset ({sum(len(keys) for keys in SMOKE_KEYS.values())} keys) ...")
    measured = measure_smoke()
    rows = compare_sections(baseline, measured, args.tolerance)
    print(f"measuring control-plane ratios ({len(CONTROL_PLANE_CEILINGS)} keys) ...")
    rows += ceiling_rows(measure_control_plane(), CONTROL_PLANE_CEILINGS)

    failures = 0
    for row in rows:
        base = "-" if row["baseline"] is None else f"{row['baseline']:.4f}"
        status = "FAIL" if row["regressed"] else "ok"
        if row["regressed"]:
            failures += 1
        print(
            f"  {status:4s} {row['section']:12s} {row['key']:22s} "
            f"baseline={base:>10s} measured={row['measured']:.4f} "
            f"regression={row['regression'] * 100.0:+.1f}% {row['note']}"
        )
    if failures:
        print(
            f"perf guard: {failures} key(s) regressed more than "
            f"{args.tolerance * 100.0:.0f}% vs {args.against}",
            file=sys.stderr,
        )
        return 1
    print(f"perf guard ok (tolerance {args.tolerance * 100.0:.0f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

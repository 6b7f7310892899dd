"""Control-plane ceilings: the sweep engine's wall over the work it schedules.

Two same-run ratios on one 640-spec all-synthetic plan: ``run_plan`` (cold
cache) over a bare ``[execute_spec(s) for s in plan.specs]`` loop, in-process
and on a 2-worker pool.  A ratio of two timings of one run needs no recorded
baseline and no machine constant.

    PYTHONPATH=src python -m pytest benchmarks/bench_control_plane.py -m perf -s
"""

from __future__ import annotations

import statistics
import tempfile
import time

import pytest

from repro.modeling.study import StudyConfiguration
from repro.study import build_plan, execute_spec, run_plan

#: Most the engine may cost, as a multiple of the work it schedules.
CONTROL_PLANE_CEILINGS = {"inline_over_bare": 5.0, "pool_over_bare": 9.0}


def measure_control_plane(repeats: int = 5) -> dict[str, float]:
    """Sweep-engine wall over a bare spec loop: median of ``repeats`` same-run ratios.

    Each repeat times the three passes back to back, starting one place further
    round the cycle than the last, so that no pass always runs first.
    """
    config = StudyConfiguration(
        architectures=("gpu1-k40m", "gpu-p100", "gpu-v100", "gpu-a100"),
        techniques=("raytrace", "raster", "volume", "volume_unstructured"),
        samples_per_technique=40,
    )
    plan = build_plan(config, include_compositing=False)
    if plan.counts()["synthetic"] != 640 or len(plan) != 640:
        raise RuntimeError(f"expected 640 synthetic specs, planned {plan.counts()}")

    def sweep(jobs: int) -> None:
        with tempfile.TemporaryDirectory(prefix="control-plane-cache-") as root:
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


@pytest.mark.perf
def test_control_plane_ceilings():
    measured = measure_control_plane()
    print("\n" + ", ".join(f"{key} {value:.2f}x (ceiling {CONTROL_PLANE_CEILINGS[key]})"
                           for key, value in measured.items()))
    for key, ceiling in CONTROL_PLANE_CEILINGS.items():
        assert measured[key] <= ceiling, f"{key} {measured[key]:.2f}x exceeds {ceiling}x"

"""Thousand-rank streaming compositing: the CI scale gate.

Drives :meth:`repro.compositing.Compositor.composite_streaming` at 1k-16k
simulated ranks -- the driver that serves 64-rank ``composite()`` calls, here
under a live budget far below the population, where neither a list of
framebuffers nor ``composite_reference`` fits in memory.  Every check is
machine-independent: byte equality across budgets, merge counts, the
live-image ledger, and ``tracemalloc`` bytes.  Two entry points:

CI smoke (the ``compositing-scale-smoke`` job):

    PYTHONPATH=src python -m benchmarks.bench_compositing_scale --smoke \
        [--round-log compositing_scale_rounds.json]

runs 1,024-rank binary-swap and radix-k at 128^2, asserts cohort-size
invariance (two different ``max_live_ranks`` budgets produce byte-identical
images), holds the peak traced allocation under
:data:`SMOKE_MEMORY_BUDGET_BYTES`, and writes the per-round traffic log as a
JSON artifact.

Scale completion (the acceptance configuration):

    PYTHONPATH=src python -m benchmarks.bench_compositing_scale --ranks 16384 \
        [--size 256] [--algorithms binary-swap,radix-k] [--budget-mb 600]

completes each algorithm at the requested rank count and fails if the peak
traced allocation exceeds the budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

from repro.compositing import Compositor, scene_factory

#: Image edge of the smoke and perf measurements.
SCALE_IMAGE_SIZE = 128

#: Rank count of the CI smoke assertions.
SMOKE_RANKS = 1024

#: The two cohort budgets whose outputs must be byte-identical.
SMOKE_LIVE_BUDGETS = (64, 256)

#: Peak traced allocation allowed for one 1,024-rank smoke composite under the
#: 64-image budget.  Measured: 24.0 MB (binary-swap) and 22.4 MB (radix-k);
#: ``tracemalloc`` bytes do not depend on the machine, so the head-room is for
#: numpy versions, not for noise -- a driver that keeps a cohort's images
#: beside its band, or the cut band beside the fold's output, lands above it.
SMOKE_MEMORY_BUDGET_BYTES = 40_000_000

SMOKE_ALGORITHMS = ("binary-swap", "radix-k")


def measure_scale(
    algorithm: str,
    ranks: int,
    size: int = SCALE_IMAGE_SIZE,
    max_live_ranks: int = 256,
    scenario: str = "uniform",
    trace_memory: bool = False,
) -> dict:
    """One streamed composite; wall clock, accounting, optional traced peak."""
    factory = scene_factory(scenario, ranks, size, size, mode="depth", seed=2016)
    compositor = Compositor(algorithm)
    if trace_memory:
        tracemalloc.start()
    start = time.perf_counter()
    result = compositor.composite_streaming(
        factory, ranks, size, size, mode="depth", max_live_ranks=max_live_ranks
    )
    seconds = time.perf_counter() - start
    peak_bytes = 0
    if trace_memory:
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return {
        "algorithm": algorithm,
        "ranks": ranks,
        "pixels": size * size,
        "seconds": seconds,
        "ranks_per_s": ranks / seconds,
        "peak_memory_bytes": int(peak_bytes),
        "max_live_ranks": max_live_ranks,
        "peak_live_images": result.peak_live_images,
        "cohorts": result.cohorts,
        "merge_operations": result.merge_operations,
        "bytes_exchanged": result.bytes_exchanged,
        "network_seconds": result.network_seconds,
        "rounds": len(result.round_summary),
        "round_summary": result.round_summary,
        "checksum": result.framebuffer.rgba.tobytes().hex()[:32],
    }


def run_smoke(round_log_path: str | None) -> int:
    """The ``compositing-scale-smoke`` assertions; returns a process exit code."""
    logs = {}
    for algorithm in SMOKE_ALGORITHMS:
        rows = [
            measure_scale(
                algorithm,
                SMOKE_RANKS,
                max_live_ranks=budget,
                trace_memory=(budget == SMOKE_LIVE_BUDGETS[0]),
            )
            for budget in SMOKE_LIVE_BUDGETS
        ]
        first, second = rows
        if first["checksum"] != second["checksum"]:
            print(
                f"FAIL {algorithm}: max_live_ranks={SMOKE_LIVE_BUDGETS[0]} and "
                f"{SMOKE_LIVE_BUDGETS[1]} disagree "
                f"({first['checksum']} vs {second['checksum']})",
                file=sys.stderr,
            )
            return 1
        if first["merge_operations"] != second["merge_operations"]:
            print(f"FAIL {algorithm}: merge counts differ across cohort sizes", file=sys.stderr)
            return 1
        if first["peak_memory_bytes"] > SMOKE_MEMORY_BUDGET_BYTES:
            print(
                f"FAIL {algorithm}: peak traced allocation "
                f"{first['peak_memory_bytes'] / 1e6:.1f} MB exceeds the "
                f"{SMOKE_MEMORY_BUDGET_BYTES / 1e6:.0f} MB smoke budget",
                file=sys.stderr,
            )
            return 1
        for row in rows:
            if row["peak_live_images"] > row["max_live_ranks"] + 1:
                print(
                    f"FAIL {algorithm}: ledger peak {row['peak_live_images']} broke "
                    f"the max_live_ranks={row['max_live_ranks']} contract",
                    file=sys.stderr,
                )
                return 1
        logs[algorithm] = {
            "ranks": SMOKE_RANKS,
            "pixels": first["pixels"],
            "max_live_ranks": [row["max_live_ranks"] for row in rows],
            "peak_memory_bytes": first["peak_memory_bytes"],
            "rounds": first["round_summary"],
        }
        print(
            f"  ok {algorithm:12s} {SMOKE_RANKS} ranks  "
            f"invariant across max_live={SMOKE_LIVE_BUDGETS}  "
            f"{first['seconds']:.1f}s  peak {first['peak_memory_bytes'] / 1e6:.1f} MB  "
            f"{first['rounds']} rounds"
        )
    if round_log_path:
        with open(round_log_path, "w", encoding="utf-8") as handle:
            json.dump(logs, handle, indent=2, sort_keys=True)
        print(f"  round log written to {round_log_path}")
    print("compositing scale smoke ok")
    return 0


def run_completion(ranks: int, size: int, algorithms: list[str], budget_mb: float) -> int:
    """Complete each algorithm at ``ranks``; enforce the traced-memory budget."""
    for algorithm in algorithms:
        row = measure_scale(algorithm, ranks, size=size, trace_memory=True)
        peak_mb = row["peak_memory_bytes"] / 1e6
        print(
            f"  {algorithm:12s} {ranks} ranks at {size}^2: {row['seconds']:.1f}s "
            f"({row['ranks_per_s']:.0f} ranks/s), peak {peak_mb:.1f} MB, "
            f"{row['cohorts']} cohorts, {row['rounds']} rounds"
        )
        if peak_mb > budget_mb:
            print(
                f"FAIL {algorithm}: peak {peak_mb:.1f} MB exceeds {budget_mb:.0f} MB",
                file=sys.stderr,
            )
            return 1
    print(f"scale completion ok at {ranks} ranks")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.bench_compositing_scale",
        description="Streaming compositing at 1k-16k simulated ranks.",
    )
    parser.add_argument("--smoke", action="store_true", help="run the CI smoke assertions")
    parser.add_argument(
        "--round-log", default=None, help="write the smoke round log JSON here (artifact)"
    )
    parser.add_argument("--ranks", type=int, default=None, help="completion run at this rank count")
    parser.add_argument("--size", type=int, default=256, help="image edge of the completion run")
    parser.add_argument(
        "--algorithms",
        default="binary-swap,radix-k",
        help="comma list of exchange algorithms for the completion run",
    )
    parser.add_argument(
        "--budget-mb", type=float, default=600.0, help="traced-allocation budget (completion run)"
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args.round_log)
    if args.ranks is not None:
        return run_completion(args.ranks, args.size, args.algorithms.split(","), args.budget_mb)
    parser.error("pass --smoke or --ranks N")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())

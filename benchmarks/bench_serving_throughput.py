"""Load-generation benchmark for the prediction-serving tier -> BENCH_serving.json.

Starts a real :mod:`repro.serving` server on an ephemeral localhost port and
drives it through the socket with pipelined HTTP/1.1 load: ``connections``
persistent client connections each write ``pipeline`` single-configuration
``POST /predict`` requests before reading any response, so
``connections * pipeline`` configurations are concurrently in flight (the
full preset holds 10,240).  Three measured phases:

* **micro-batched** -- the production server (``max_batch``/``max_delay_us``
  accumulation window), result cache disabled so every prediction is computed;
* **no-batching baseline** -- the same server with ``max_batch=1``: every
  request is served individually, the classic per-request serving loop.  The
  headline ``speedup_vs_no_batching`` is the ratio of the two measured
  predictions/sec numbers -- a measurement, not a claim;
* **warm cache** -- the micro-batched server re-serving the same pool with
  the LRU enabled, for the cache's contribution on repeating traffic.

Every response is parsed after the clock stops and checked **bit-identical**
against :meth:`Predictor.predict_configurations
<repro.reporting.predictor.Predictor.predict_configurations>` on the same
inputs -- the serving tier's differential oracle.  Latency is recorded
per request from its (pipelined) send to its response, so p50/p99 describe
queue drain under the full concurrent load.

    python -m benchmarks.bench_serving_throughput            # full: 10,240 configs
    python -m benchmarks.bench_serving_throughput --smoke    # CI-sized, parity gate

The full run also measures the smoke shape so the emitted record carries the
``smoke_*`` keys :mod:`benchmarks.perf_guard` re-measures in CI.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
if str(_BENCH_DIR) not in sys.path:  # allow `python -m benchmarks.bench_serving_throughput`
    sys.path.insert(0, str(_BENCH_DIR))

from repro.modeling.study import StudyConfiguration
from repro.reporting import ModelSuite, Predictor
from repro.serving.client import request_bytes
from repro.serving.core import canonical_config
from repro.serving.server import start_server
from repro.study import run_study

__all__ = [
    "build_models_fixture",
    "config_pool",
    "measure_serving",
    "measure_smoke_serving",
    "main",
]

#: Load shapes: (connections, pipelined single-config requests per connection).
FULL_SHAPE = (64, 160)  # 10,240 configs concurrently in flight
SMOKE_SHAPE = (32, 48)  # 1,536 -- CI-sized

#: Production-shaped knobs for the micro-batched phase.
MAX_BATCH = 512
MAX_DELAY_US = 2000

_TASK_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
_IMAGE_SIZES = ((256, 256), (512, 512), (1024, 768), (1024, 1024), (1920, 1080), (2048, 2048))


def build_models_fixture(out_dir: Path) -> Path:
    """Fit a small deterministic suite and write its ``models.json``."""
    config = StudyConfiguration(
        architectures=("cpu-host", "gpu1-k40m"),
        techniques=("raytrace", "volume"),
        simulations=("kripke",),
        task_counts=(1, 4),
        samples_per_technique=8,
        compositing_task_counts=(2, 4),
        compositing_pixel_sizes=(32, 48, 64),
        seed=2016,
    )
    suite = ModelSuite.fit_corpus(run_study(config))
    return suite.save(out_dir / "models.json")


def config_pool(keys: list[tuple[str, str]], count: int) -> list[dict]:
    """``count`` pairwise-distinct render configurations over the fitted slices."""
    pool = []
    for index in range(count):
        architecture, technique = keys[index % len(keys)]
        rest = index // len(keys)
        cells = 40 + rest % 400
        rest //= 400
        width, height = _IMAGE_SIZES[rest % len(_IMAGE_SIZES)]
        rest //= len(_IMAGE_SIZES)
        tasks = _TASK_COUNTS[rest % len(_TASK_COUNTS)]
        pool.append(
            {
                "architecture": architecture,
                "technique": technique,
                "num_tasks": tasks,
                "cells_per_task": cells,
                "image_width": width,
                "image_height": height,
            }
        )
    return pool


async def _drive_connection(
    host: str, port: int, payloads: list[bytes]
) -> tuple[list[float], list[bytes]]:
    """One pipelined connection: write every request, then bulk-read responses.

    Responses are parsed off a growing buffer (the server writes them
    coalesced, so one ``read`` usually delivers many), with one latency stamp
    per arriving chunk -- the true wire arrival time of that coalesced run.
    """
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"".join(payloads))
    await writer.drain()
    sent_at = time.perf_counter()
    latencies: list[float] = []
    bodies: list[bytes] = []
    buffer = b""
    remaining = len(payloads)
    while remaining:
        chunk = await reader.read(1 << 18)
        if not chunk:
            raise RuntimeError("server closed the connection mid-stream")
        buffer += chunk
        arrived = time.perf_counter()
        while remaining:
            header_end = buffer.find(b"\r\n\r\n")
            if header_end < 0:
                break
            header = buffer[:header_end]
            lowered = header.lower()
            marker = lowered.find(b"content-length:")
            line_end = lowered.find(b"\r\n", marker)
            length = int(lowered[marker + 15 : line_end if line_end >= 0 else len(lowered)])
            total = header_end + 4 + length
            if len(buffer) < total:
                break
            body = buffer[header_end + 4 : total]
            buffer = buffer[total:]
            status = int(header.split(b" ", 2)[1])
            if status != 200:
                raise RuntimeError(f"serving error {status}: {body.decode(errors='replace')}")
            latencies.append(arrived - sent_at)
            bodies.append(body)
            remaining -= 1
    writer.close()
    return latencies, bodies


async def _run_load(server, configs: list[dict], connections: int) -> dict:
    """Drive the pool through the socket; returns wall time, latencies, pairs.

    ``pairs`` aligns each configuration with the response body that answered
    it (responses are positional per connection), so parity can be checked
    without the server echoing configurations back.
    """
    per_conn_configs = [chunk for chunk in (configs[i::connections] for i in range(connections)) if chunk]
    per_conn_payloads = [
        [request_bytes("POST", "/predict", config) for config in chunk] for chunk in per_conn_configs
    ]
    start = time.perf_counter()
    outcomes = await asyncio.gather(
        *(_drive_connection(server.host, server.port, payloads) for payloads in per_conn_payloads)
    )
    wall = time.perf_counter() - start
    latencies = [latency for chunk_latencies, _ in outcomes for latency in chunk_latencies]
    pairs: list[tuple[dict, bytes]] = []
    for chunk, (_, bodies) in zip(per_conn_configs, outcomes):
        pairs.extend(zip(chunk, bodies))
    return {"wall_s": wall, "latencies": latencies, "pairs": pairs}


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def measure_serving(
    models: Path,
    connections: int,
    pipeline: int,
    max_batch: int = MAX_BATCH,
    max_delay_us: int = MAX_DELAY_US,
    cache_size: int = 0,
    repeat_pool: bool = False,
) -> dict:
    """One measured phase: start a server, drive the load, collect the numbers."""
    configs = config_pool(_renderer_keys(models), connections * pipeline)

    async def scenario() -> dict:
        server = await start_server(
            models,
            max_batch=max_batch,
            max_delay_us=max_delay_us,
            cache_size=cache_size,
            watch=False,
        )
        try:
            if repeat_pool:  # warm the cache with one full pass first
                await _run_load(server, configs, connections)
            run = await _run_load(server, configs, connections)
            run["stats"] = server.stats()
            return run
        finally:
            await server.close()

    run = asyncio.run(scenario())
    total = len(configs)
    rows = [
        {**config, **json.loads(body)["predictions"][0]} for config, body in run["pairs"]
    ]
    return {
        "configs": configs,
        "rows": rows,
        "total_configs": total,
        "concurrent_configs": total,
        "connections": connections,
        "pipeline_depth": pipeline,
        "wall_s": run["wall_s"],
        "predictions_per_s": total / run["wall_s"],
        "p50_ms": _percentile(run["latencies"], 0.50) * 1e3,
        "p99_ms": _percentile(run["latencies"], 0.99) * 1e3,
        "mean_ms": statistics.fmean(run["latencies"]) * 1e3,
        "stats": run["stats"],
    }


def _renderer_keys(models: Path) -> list[tuple[str, str]]:
    suite = ModelSuite.load(models)
    return sorted(suite.entries)


def check_parity(models: Path, rows: list[dict]) -> int:
    """Assert every served prediction is bit-identical to the batch Predictor."""
    predictor = Predictor.load(models)
    checked = 0
    for row in rows:
        canon = canonical_config(row)
        batch = predictor.predict_configurations(
            canon[1],
            canon[2],
            num_tasks=canon[3],
            cells_per_task=canon[4],
            image_width=canon[5],
            image_height=canon[6],
            samples_in_depth=canon[7],
            include_build=canon[8],
        )
        expected = (
            float(batch.seconds[0]),
            float(batch.lower[0]),
            float(batch.upper[0]),
            float(batch.residual_std),
        )
        served = (row["seconds"], row["lower"], row["upper"], row["residual_std"])
        if served != expected:
            raise AssertionError(f"parity violation for {row}: served {served}, predictor {expected}")
        checked += 1
    return checked


def measure_smoke_serving(models: Path | None = None) -> dict[str, float]:
    """The perf-guard subset: smoke-shape batched throughput and p99 latency.

    Best of two runs: the guard fails on dips only, so the stable upper
    envelope is the right statistic on a noisy shared-CPU box.
    """
    with tempfile.TemporaryDirectory() as tmp:
        models = models or build_models_fixture(Path(tmp))
        connections, pipeline = SMOKE_SHAPE
        phases = [measure_serving(models, connections, pipeline) for _ in range(2)]
        return {
            "smoke_predictions_per_s": round(max(p["predictions_per_s"] for p in phases), 1),
            "smoke_p99_ms": round(min(p["p99_ms"] for p in phases), 2),
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.bench_serving_throughput",
        description="Drive pipelined load through the prediction server; emit BENCH_serving.json.",
    )
    parser.add_argument("--smoke", action="store_true", help="CI-sized load (parity gate only)")
    parser.add_argument("--out", default=str(_BENCH_DIR.parent / "BENCH_serving.json"))
    parser.add_argument("--models", help="existing models.json (default: fit a fixture suite)")
    parser.add_argument("--max-batch", type=int, default=MAX_BATCH)
    parser.add_argument("--max-delay-us", type=int, default=MAX_DELAY_US)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail under this batched/baseline ratio (default: 5.0 full, unenforced smoke)",
    )
    args = parser.parse_args(argv)

    connections, pipeline = SMOKE_SHAPE if args.smoke else FULL_SHAPE
    min_speedup = args.min_speedup if args.min_speedup is not None else (None if args.smoke else 5.0)

    with tempfile.TemporaryDirectory() as tmp:
        models = Path(args.models) if args.models else build_models_fixture(Path(tmp))

        print(f"load shape: {connections} connections x {pipeline} pipelined = "
              f"{connections * pipeline} concurrent configs")
        print(f"micro-batched phase (max_batch={args.max_batch}, max_delay_us={args.max_delay_us}) ...")
        batched = measure_serving(
            models, connections, pipeline, max_batch=args.max_batch, max_delay_us=args.max_delay_us
        )
        print(
            f"  {batched['predictions_per_s']:.0f} predictions/s, "
            f"p50={batched['p50_ms']:.1f}ms p99={batched['p99_ms']:.1f}ms"
        )
        print("no-batching baseline phase (max_batch=1) ...")
        baseline = measure_serving(models, connections, pipeline, max_batch=1)
        print(
            f"  {baseline['predictions_per_s']:.0f} predictions/s, "
            f"p50={baseline['p50_ms']:.1f}ms p99={baseline['p99_ms']:.1f}ms"
        )
        print("warm-cache phase (micro-batched, LRU enabled) ...")
        cached = measure_serving(
            models,
            connections,
            pipeline,
            max_batch=args.max_batch,
            max_delay_us=args.max_delay_us,
            cache_size=connections * pipeline,
            repeat_pool=True,
        )
        print(f"  {cached['predictions_per_s']:.0f} predictions/s")

        checked = check_parity(models, batched["rows"] + baseline["rows"] + cached["rows"])
        print(f"parity: {checked} served predictions bit-identical to Predictor.predict_configurations")

        smoke_keys = (
            {"smoke_predictions_per_s": round(batched["predictions_per_s"], 1),
             "smoke_p99_ms": round(batched["p99_ms"], 2)}
            if args.smoke
            else measure_smoke_serving(models)
        )

    speedup = batched["predictions_per_s"] / baseline["predictions_per_s"]
    import numpy

    record = {
        "benchmark": "serving_throughput",
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "serving": {
            "load": {
                "connections": connections,
                "pipeline_depth": pipeline,
                "total_configs": batched["total_configs"],
                "concurrent_configs": batched["concurrent_configs"],
            },
            "knobs": {"max_batch": args.max_batch, "max_delay_us": args.max_delay_us},
            "current": {
                "predictions_per_s": round(batched["predictions_per_s"], 1),
                "p50_ms": round(batched["p50_ms"], 2),
                "p99_ms": round(batched["p99_ms"], 2),
                "baseline_predictions_per_s": round(baseline["predictions_per_s"], 1),
                "baseline_p99_ms": round(baseline["p99_ms"], 2),
                "speedup_vs_no_batching": round(speedup, 2),
                "cached_predictions_per_s": round(cached["predictions_per_s"], 1),
                **smoke_keys,
            },
            "batch_histogram": batched["stats"]["batching"]["histogram"],
            "cache": cached["stats"]["cache"],
            "parity": {"checked": checked, "bit_identical": True},
        },
    }
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"speedup vs no-batching baseline: {speedup:.2f}x -> {out}")
    if min_speedup is not None and speedup < min_speedup:
        print(
            f"FAIL: micro-batched throughput is {speedup:.2f}x the no-batching baseline "
            f"(floor {min_speedup:.1f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

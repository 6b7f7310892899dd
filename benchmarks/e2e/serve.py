"""The ``serve_mixed`` workload: a closed-loop load on a real server subprocess.

Set-up fits a synthetic-only suite and starts ``python -m repro.serve`` in its
own process; the benchmark process is the load generator.  It holds
:data:`CONNECTIONS` persistent connections (never more than ``nproc``), each
keeping a window of :data:`WINDOW` pipelined single-configuration
``POST /predict`` requests in flight: send the window, read its responses,
send the next -- a closed loop, so a slower server receives less load.  Hits
and misses share one stream (each request repeats a recent one with
probability 0.5), so a gain for one that costs the other shows in the blend.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.modeling.study import StudyConfiguration
from repro.reporting import ModelSuite, Predictor
from repro.serving.client import request_bytes
from repro.study import build_plan, run_plan

from benchmarks.e2e import measure
from benchmarks.e2e.inputs import random_configs
from benchmarks.e2e.trace import NullRecorder

CONNECTIONS = min(2, os.cpu_count() or 1)
WINDOW = 64
REPEAT_PROBABILITY = 0.5

SCALES = {
    "full": {"pass_requests": 30_000, "warm_requests": 2_000, "fit_samples": 24},
    "quick": {"pass_requests": 1_024, "warm_requests": 256, "fit_samples": 8},
}


def fit_models(seed: int, samples: int, out_dir: Path) -> Path:
    """Fit the synthetic-only suite (2 architectures x 3 techniques) to ``models.json``."""
    config = StudyConfiguration(
        architectures=("gpu1-k40m", "gpu-p100"),
        samples_per_technique=samples,
        compositing_task_counts=(2, 4, 8),
        compositing_pixel_sizes=(32, 48, 64),
        seed=seed,
    )
    corpus, _ = run_plan(build_plan(config))
    return ModelSuite.fit_corpus(corpus, seed=seed).save(out_dir / "models.json")


class ServerProcess:
    """``python -m repro.serve --port 0 --no-watch`` as a child, reaped on every exit path."""

    def __init__(self, models: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(measure.REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--models", str(models), "--port", "0", "--no-watch"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        try:
            banner = self.process.stdout.readline()  # "serving http://host:port models=..."
            self.port = int(banner.split()[1].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"prediction server did not start: {banner!r}") from None

    @property
    def pid(self) -> int:
        return self.process.pid

    def stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=10) as response:
            return json.load(response)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- the load generator -----------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float
    latencies_ms: list[float]
    bodies: list[tuple[int, bytes]]  # (status, body) aligned with the request stream
    windows: list[tuple[int, float, float]]  # (connection, send time, last arrival)
    loadgen_cpu_s: float


async def _drive_connection(port: int, index: int, payloads: list[bytes], out: dict) -> None:
    """One persistent connection: window after window until its payloads run out."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    latencies, bodies, windows = out["latencies"], out["bodies"][index], out["windows"]
    buffer = b""
    try:
        for offset in range(0, len(payloads), WINDOW):
            window = payloads[offset : offset + WINDOW]
            sent_at = time.perf_counter()
            writer.write(b"".join(window))
            await writer.drain()
            remaining = len(window)
            arrived = sent_at
            while remaining:
                chunk = await reader.read(1 << 18)
                if not chunk:
                    raise RuntimeError("server closed the connection mid-window")
                arrived = time.perf_counter()
                buffer += chunk
                while remaining:
                    header_end = buffer.find(b"\r\n\r\n")
                    if header_end < 0:
                        break
                    header = buffer[:header_end]
                    marker = header.lower().find(b"content-length:")
                    line_end = header.find(b"\r\n", marker)
                    length = int(header[marker + 15 : line_end if line_end >= 0 else len(header)])
                    total = header_end + 4 + length
                    if len(buffer) < total:
                        break
                    bodies.append((int(header.split(b" ", 2)[1]), buffer[header_end + 4 : total]))
                    buffer = buffer[total:]
                    latencies.append((arrived - sent_at) * 1e3)
                    remaining -= 1
            windows.append((index, sent_at, arrived))
    finally:
        writer.close()


def encode(configs: list[dict]) -> list[bytes]:
    """One single-configuration ``POST /predict`` wire request per configuration."""
    return [request_bytes("POST", "/predict", config) for config in configs]


def drive(port: int, payloads: list[bytes]) -> PassResult:
    """Send one request stream through :data:`CONNECTIONS` windowed connections."""
    shards = [payloads[i::CONNECTIONS] for i in range(CONNECTIONS)]
    out = {"latencies": [], "bodies": [[] for _ in shards], "windows": []}

    async def run_all() -> None:
        await asyncio.gather(
            *(_drive_connection(port, i, shard, out) for i, shard in enumerate(shards))
        )

    cpu_before = time.process_time()
    start = time.perf_counter()
    asyncio.run(run_all())
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_before
    # Un-shard: request k went to connection k % CONNECTIONS, position k // CONNECTIONS.
    bodies = [out["bodies"][k % CONNECTIONS][k // CONNECTIONS] for k in range(len(payloads))]
    return PassResult(wall, out["latencies"], bodies, out["windows"], cpu)


def mismatches(predictor: Predictor, configs: list[dict], bodies: list[tuple[int, bytes]]) -> int:
    """Responses that are not 200 or not bit-identical to the offline ``Predictor``."""
    groups: dict[tuple[str, str], list[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault((config["architecture"], config["technique"]), []).append(index)
    expected: list = [None] * len(configs)
    for (architecture, technique), indices in groups.items():
        columns = {
            key: np.array([configs[i][key] for i in indices], dtype=np.float64)
            for key in ("num_tasks", "cells_per_task", "image_width", "image_height")
        }
        batch = predictor.predict_configurations(architecture, technique, **columns)
        for position, index in enumerate(indices):
            expected[index] = {
                "seconds": float(batch.seconds[position]),
                "lower": float(batch.lower[position]),
                "upper": float(batch.upper[position]),
                "residual_std": float(batch.residual_std),
            }
    bad = 0
    for (status, body), want in zip(bodies, expected):
        if status != 200 or json.loads(body)["predictions"] != [want]:
            bad += 1
    return bad


# -- the workload -----------------------------------------------------------------------

@dataclass
class Repetition:
    """One pass.  ``wall_s`` is the pass, ``cpu_s`` the server process's user + system."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)  #: window send -> response arrival
    predictions: int = 0
    failed: int = 0  #: responses that were not 200 or not bit-identical to the Predictor
    loadgen_cpu_s: float = 0.0
    root_span: object = None

    @property
    def predict_s(self) -> float:
        return self.wall_s

    @property
    def attempted(self) -> int:
        return self.predictions


class ServeWorkload:
    name = "serve_mixed"

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.scale = SCALES["quick" if quick else "full"]
        self.rng = np.random.default_rng([seed, 0x5E7E])
        self.server: ServerProcess | None = None
        self.predictor: Predictor | None = None
        self.slices: list[tuple[str, str]] = []

    def setup(self, workdir: Path) -> None:
        models = fit_models(self.seed, self.scale["fit_samples"], workdir)
        self.predictor = Predictor.load(models)
        self.slices = [key for key in self.predictor.available() if key[1] != "compositing"]
        self.server = ServerProcess(models)

    def warm_up(self, workdir: Path) -> None:
        self.repetition(workdir, NullRecorder(), warm=True)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def repetition(self, workdir: Path, rec, warm: bool = False) -> Repetition:
        out = Repetition()
        count = self.scale["warm_requests" if warm else "pass_requests"]
        with rec.span("rep.serve_mixed") as out.root_span:
            with rec.span("loadgen.generate"):
                configs = random_configs(self.rng, count, REPEAT_PROBABILITY, self.slices)  # new every pass
                payloads = encode(configs)
            cpu_before = measure.process_cpu_seconds(self.server.pid)
            with rec.span("serving.pass") as pass_span:
                result = drive(self.server.port, payloads)
            out.cpu_s = measure.process_cpu_seconds(self.server.pid) - cpu_before
        if rec.enabled:
            for connection, sent_at, arrived in result.windows:
                rec.add("loadgen.window", sent_at, arrived, pass_span.span_id, track=connection + 1)
        out.wall_s = result.wall_s
        out.latencies_ms = result.latencies_ms
        out.predictions = count
        out.loadgen_cpu_s = result.loadgen_cpu_s
        out.failed = mismatches(self.predictor, configs, result.bodies)  # outside the timed pass
        return out

    def peak_rss_mb(self) -> float:
        return measure.process_peak_rss_mb(self.server.pid)

    def digest(self, rep: Repetition) -> str:
        return ""  # no corpus: the parity check covers every response

    def check(self, reps: list[Repetition], workdir: Path, golden: dict) -> list[str]:
        problems = []
        failed = sum(rep.failed for rep in reps)
        if failed:
            problems.append(f"{failed} responses were not 200 or differed from the offline Predictor")
        errors = self.server.stats()["requests"]["errors"]
        if errors:
            problems.append(f"server counted {errors} request errors")
        # The generator must not be the bottleneck it is measuring around.
        busiest = max(rep.loadgen_cpu_s / rep.wall_s for rep in reps)
        if busiest >= 0.8:
            problems.append(f"load generator used {busiest:.2f} of a core: the run is generator-bound")
        return problems

    def attribution(self, rec, rep: Repetition) -> dict[str, float]:
        # Imported here: serve_mixed's set-up should not pay for loading the renderers.
        from benchmarks.e2e.sweeps import attribution_names

        root = rep.root_span
        top = {span.name: span for span in rec.children(root)}
        metrics = dict.fromkeys(attribution_names(), 0.0)
        metrics["serving.share"] = top["serving.pass"].seconds / root.seconds
        metrics["loadgen.share"] = top["loadgen.generate"].seconds / root.seconds
        metrics["trace.residual_s"] = rec.self_seconds(root)
        metrics["trace.residual_share"] = rec.self_seconds(root) / root.seconds
        return metrics

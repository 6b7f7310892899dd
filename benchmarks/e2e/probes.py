"""Layer probes: direct calls into each layer's public functions at pinned sizes.

A traced run executes every probe, whatever its workload: the driver reads
every per-layer metric from every ``--trace 1`` run, and a probe that did not
run has no number to report.  Probes never see a workload's state: their inputs
come from ``--seed`` and the sizes pinned below.  Every timing is the median of
:data:`CALLS` calls.  Same-run A/B ratios against the in-tree oracles
(``render_reference``, ``engine="reference"``) state their base.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro import dpp
from repro.compositing import Compositor, scene_factory
from repro.geometry.tetra import tetrahedralize_uniform_grid
from repro.geometry.transforms import Camera
from repro.geometry.triangles import external_faces
from repro.modeling.study import StudyConfiguration
from repro.rendering import (
    Rasterizer,
    RayTracer,
    RayTracerConfig,
    Scene,
    StructuredVolumeConfig,
    StructuredVolumeRenderer,
    UnstructuredVolumeConfig,
    UnstructuredVolumeRenderer,
    Workload,
)
from repro.reporting import ModelSuite, Predictor, generate_report
from repro.runtime.communicator import SimulatedCommunicator
from repro.runtime.decomposition import BlockDecomposition
from repro.serving.core import ModelHandle, ServingCore, canonical_config
from repro.study import (
    CorpusCache,
    SweepExecutor,
    build_plan,
    execute_spec,
    load_corpus,
    run_adaptive_rounds,
    run_plan,
    save_corpus,
)

from benchmarks.e2e import measure, serve
from benchmarks.e2e.inputs import random_columns, random_configs
from benchmarks.e2e.sweeps import ALGORITHMS, GPU_ARCHITECTURES, synthetic_framebuffers

SIZES = {
    "full": {
        "study_samples": 40,
        "adaptive_batch": 16,
        "predict_batch": 100_000,
        "render_image": 192,
        "render_cells": 24,
        "ab_image": 96,
        "tet_cells": 10,
        "tet_ab_image": 48,
        "dpp_elements": 1 << 20,
        "composite_pixels": 64,
        "dense_ranks": 64,
        "stream_ranks": 1024,
        "stream_budget": 128,
        "exchange_messages": 20_000,
        "core_configs": 50_000,
        "http_requests": 4_096,
    },
    "quick": {
        "study_samples": 9,
        "adaptive_batch": 2,
        "predict_batch": 2_000,
        "render_image": 24,
        "render_cells": 5,
        "ab_image": 16,
        "tet_cells": 3,
        "tet_ab_image": 12,
        "dpp_elements": 1 << 12,
        "composite_pixels": 16,
        "dense_ranks": 8,
        "stream_ranks": 48,
        "stream_budget": 16,
        "exchange_messages": 500,
        "core_configs": 1_000,
        "http_requests": 256,
    },
}


#: Calls per timing probe; the median drops a cold first call or one stall.
CALLS = 3


def timed(function, *args, **kwargs):
    """``(last result, median seconds)`` of :data:`CALLS` calls."""
    seconds = []
    for _ in range(CALLS):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        seconds.append(time.perf_counter() - start)
    return result, statistics.median(seconds)


def probe_groups(seed: int, quick: bool, workdir: Path):
    """Run the probes one layer group per ``next()``, yielding that group's metrics.

    A generator so that the caller can take a speed reading between groups.
    """
    sizes = SIZES["quick" if quick else "full"]
    metrics: dict[str, float] = {}
    corpus, plan = study_probes(seed, sizes, workdir, metrics)
    yield metrics
    metrics = {}
    models = reporting_probes(seed, sizes, workdir, corpus, plan, metrics)
    yield metrics
    for probe in (rendering_probes, dpp_probes, compositing_probes):
        metrics = {}
        probe(seed, sizes, metrics)
        yield metrics
    metrics = {}
    serving_probes(seed, sizes, models, metrics)
    yield metrics


# -- study ------------------------------------------------------------------------------

def study_probes(seed: int, sizes: dict, workdir: Path, metrics: dict):
    config = StudyConfiguration(
        architectures=GPU_ARCHITECTURES,
        techniques=("raytrace", "raster", "volume", "volume_unstructured"),
        task_counts=(1, 2, 4, 8, 16, 32, 64),
        samples_per_technique=sizes["study_samples"],
        compositing_algorithms=ALGORITHMS,
        compositing_task_counts=(2, 4, 8),
        compositing_pixel_sizes=(32, 48, 64),
        seed=seed,
    )
    plan, metrics["study.plan.build_s"] = timed(build_plan, config)
    specs = len(plan)
    metrics["study.plan.specs"] = specs

    # Inline executor overhead: the sweep's wall minus the time inside the specs.
    synthetic = plan.counts()["synthetic"]

    def inline_pass() -> tuple[float, float]:
        inside = {"synthetic": 0.0, "compositing": 0.0}

        def stopwatch(spec):
            start = time.perf_counter()
            try:
                return execute_spec(spec)
            finally:
                inside[spec.kind] += time.perf_counter() - start

        start = time.perf_counter()
        SweepExecutor(stopwatch, jobs=1, cache=CorpusCache(workdir / "inline")).run(plan.specs, resume=False)
        wall = time.perf_counter() - start
        return (wall - sum(inside.values())) / specs * 1e3, inside["synthetic"] / synthetic * 1e3

    passes = [inline_pass() for _ in range(CALLS)]
    metrics["study.executor.inline_ms_per_spec"] = statistics.median(p[0] for p in passes)
    metrics["modeling.synthetic_ms_per_spec"] = statistics.median(p[1] for p in passes)

    pool_cache = CorpusCache(workdir / "pool")
    (corpus, report), wall = timed(run_plan, plan, jobs=2, cache=pool_cache, resume=False)
    metrics["study.executor.pool_ms_per_spec"] = wall / specs * 1e3
    metrics["study.executor.failed"] = report.failed
    (_, resumed), wall = timed(run_plan, plan, jobs=2, cache=pool_cache)
    metrics["study.cache.resume_ms_per_spec"] = wall / specs * 1e3
    metrics["study.cache.hit_share"] = resumed.cache_hits / specs

    payload = execute_spec(plan.specs[0])
    puts, gets = [], []
    for call in range(CALLS):  # a fresh directory per call: a put creates its file, as in a cold sweep
        direct = CorpusCache(workdir / f"direct{call}")
        keyed = [(direct.key(spec.key_payload()), spec.key_payload()) for spec in plan.specs[:500]]
        start = time.perf_counter()
        for key, spec_payload in keyed:
            direct.put(key, payload, spec_payload=spec_payload)
        puts.append(time.perf_counter() - start)
        start = time.perf_counter()
        for key, _ in keyed:
            direct.get(key)
        gets.append(time.perf_counter() - start)
    metrics["study.cache.put_us"] = statistics.median(puts) / len(keyed) * 1e6
    metrics["study.cache.get_us"] = statistics.median(gets) / len(keyed) * 1e6

    path, metrics["study.corpus_io.save_s"] = timed(save_corpus, corpus, workdir / "corpus.json")
    _, metrics["study.corpus_io.load_s"] = timed(load_corpus, path)
    metrics["study.corpus_io.bytes"] = path.stat().st_size

    adaptive, metrics["study.adaptive.round_s"] = timed(
        run_adaptive_rounds, corpus, config, rounds=1, batch_size=sizes["adaptive_batch"], seed=seed
    )
    metrics["study.adaptive.candidates"] = len(adaptive.rounds[0].selection.candidates)
    return corpus, plan


# -- modeling and reporting -------------------------------------------------------------

def reporting_probes(seed: int, sizes: dict, workdir: Path, corpus, plan, metrics: dict) -> Path:
    def crossval_every_slice():
        for architecture, technique, _ in corpus.slices():
            corpus.cross_validate(architecture, technique, k=3, seed=seed)

    _, metrics["modeling.crossval_s"] = timed(crossval_every_slice)
    metrics["modeling.fit_rows"] = len(corpus.records) + len(corpus.compositing_records)
    _, fit = timed(ModelSuite.fit_corpus, corpus, seed=seed)
    metrics["reporting.suite.fit_s"] = fit
    report, generate = timed(generate_report, corpus, workdir / "report", seed=seed)
    metrics["reporting.report.generate_s"] = generate
    metrics["reporting.report.emit_s"] = generate - fit  # generate_report refits the suite
    metrics["reporting.report.artifacts"] = len(report.paths)
    metrics["reporting.report.bytes"] = sum(path.stat().st_size for path in report.paths)

    predictor, metrics["reporting.predictor.load_s"] = timed(Predictor.load, report.models_path)
    rng = np.random.default_rng([seed, 0x9ED])
    batch = sizes["predict_batch"]
    columns = random_columns(rng, batch)
    architecture, technique = sorted(predictor.suite.entries)[0]
    _, wall = timed(predictor.predict_configurations, architecture, technique, **columns)
    metrics["reporting.predictor.mpred_per_s"] = batch / wall / 1e6
    payloads = [spec.key_payload() for spec in plan.specs]
    _, metrics["reporting.predictor.interval_widths_s"] = timed(
        predictor.interval_widths_for_specs, payloads
    )
    return report.models_path


# -- rendering, geometry, runtime.decomposition -----------------------------------------

def _field(seed: int):
    """A smooth scalar field whose blob positions come from the seed."""
    centers = np.random.default_rng([seed, 0xF1E1D]).uniform(0.25, 0.75, (3, 3))

    def evaluate(points: np.ndarray) -> np.ndarray:
        value = np.full(len(points), 0.1)
        for center in centers:
            value += np.exp(-np.sum((points - center) ** 2, axis=1) / 0.08)
        return value

    return evaluate


def rendering_probes(seed: int, sizes: dict, metrics: dict) -> None:
    field = _field(seed)
    image, cells = sizes["render_image"], sizes["render_cells"]
    decomposition = BlockDecomposition(8, cells)
    _, wall = timed(lambda: [decomposition.block_grid_with_field(r, "scalar", field) for r in range(8)])
    metrics["runtime.decomposition.block_grid_s"] = wall

    grid = BlockDecomposition(1, cells).block_grid_with_field(0, "scalar", field)
    bounds = BlockDecomposition(1, cells).global_bounds
    camera = Camera.framing_bounds(bounds, image, image)
    pixels = image * image
    surface, metrics["geometry.external_faces_s"] = timed(external_faces, grid, scalar_field="scalar")
    scene = Scene(surface)

    tracer = RayTracer(scene, RayTracerConfig(workload=Workload.SHADING))
    _, metrics["geometry.bvh_build_s"] = timed(tracer.build_acceleration_structure, force=True)
    _, wall = timed(tracer.render, camera)
    metrics["rendering.raytracer.mrays_per_s"] = pixels / wall / 1e6
    _, wall = timed(Rasterizer(scene).render, camera)
    metrics["rendering.rasterizer.mpix_per_s"] = pixels / wall / 1e6

    def samples(result) -> float:
        return result.features.active_pixels * result.features.samples_per_ray

    structured = StructuredVolumeRenderer(grid, "scalar", config=StructuredVolumeConfig(samples_in_depth=60))
    result, wall = timed(structured.render, camera)
    metrics["rendering.volume.structured.msamples_per_s"] = samples(result) / wall / 1e6
    small = Camera.framing_bounds(bounds, sizes["ab_image"], sizes["ab_image"])
    _, fast = timed(structured.render, small)
    _, slow = timed(structured.render_reference, small)
    metrics["rendering.volume.structured.vs_reference"] = slow / fast  # x, base render_reference

    tet_decomposition = BlockDecomposition(1, sizes["tet_cells"])
    tets = tetrahedralize_uniform_grid(tet_decomposition.block_grid_with_field(0, "scalar", field))
    unstructured = UnstructuredVolumeRenderer(
        tets, "scalar", config=UnstructuredVolumeConfig(samples_in_depth=60)
    )
    tet_camera = Camera.framing_bounds(tet_decomposition.global_bounds, sizes["ab_image"], sizes["ab_image"])
    result, wall = timed(unstructured.render, tet_camera)
    metrics["rendering.volume.unstructured.msamples_per_s"] = samples(result) / wall / 1e6
    tiny = Camera.framing_bounds(
        tet_decomposition.global_bounds, sizes["tet_ab_image"], sizes["tet_ab_image"]
    )
    _, fast = timed(unstructured.render, tiny)
    _, slow = timed(unstructured.render_reference, tiny)
    metrics["rendering.volume.unstructured.vs_reference"] = slow / fast  # x, base render_reference


# -- dpp --------------------------------------------------------------------------------

def dpp_probes(seed: int, sizes: dict, metrics: dict) -> None:
    count = sizes["dpp_elements"]
    rng = np.random.default_rng([seed, 0xD99])
    values = rng.random(count)
    flags = rng.random(count) < 0.5
    indices = rng.permutation(count)
    starts = np.arange(0, count, 16, dtype=np.int64)
    tiebreak = rng.integers(0, 1 << 30, count)
    output = np.empty(count)
    calls = {
        "stream_compact": lambda: dpp.stream_compact(flags, values),
        "scatter": lambda: dpp.scatter(values, indices, output),
        "gather": lambda: dpp.gather(values, indices),
        "exclusive_scan": lambda: dpp.exclusive_scan(flags.astype(np.int64)),
        "segmented_argmin": lambda: dpp.segmented_argmin(values, starts, tiebreak),
        "reduce_field": lambda: dpp.reduce_field(values),
    }
    with dpp.use_device("vectorized"):
        for name, call in calls.items():
            metrics[f"dpp.{name}.melem_per_s"] = count / timed(call)[1] / 1e6


# -- compositing and runtime.communicator -----------------------------------------------

def compositing_probes(seed: int, sizes: dict, metrics: dict) -> None:
    size, dense_ranks = sizes["composite_pixels"], sizes["dense_ranks"]
    stream_ranks, budget = sizes["stream_ranks"], sizes["stream_budget"]
    rng = np.random.default_rng([seed, 0xC09])
    framebuffers = synthetic_framebuffers(rng, dense_ranks, size)
    order = [float(rank) for rank in range(dense_ranks)]
    factory = scene_factory("amr", stream_ranks, size, size, mode="over", seed=seed)
    _, metrics["compositing.scene_factory_s"] = timed(lambda: [factory(r) for r in range(stream_ranks)])

    results = []
    for algorithm in ALGORITHMS:
        compositor = Compositor(algorithm)
        dense, wall = timed(compositor.composite, framebuffers, mode="over", visibility_order=order)
        metrics[f"compositing.{algorithm}.dense_ranks_per_s"] = dense_ranks / wall
        metrics[f"compositing.{algorithm}.merge_operations"] = dense.merge_operations
        streamed, wall = timed(
            compositor.composite_streaming,
            factory, stream_ranks, size, size, mode="over", max_live_ranks=budget,
        )
        metrics[f"compositing.{algorithm}.stream_ranks_per_s"] = stream_ranks / wall
        results += [dense, streamed]
    metrics["compositing.local_s"] = sum(result.local_seconds for result in results)
    metrics["compositing.peak_live_images"] = max(result.peak_live_images for result in results)
    metrics["runtime.communicator.bytes_exchanged"] = sum(result.bytes_exchanged for result in results)
    metrics["runtime.communicator.messages"] = sum(result.messages for result in results)
    metrics["runtime.communicator.rounds"] = sum(len(result.round_summary) for result in results)

    radix = Compositor("radix-k")
    _, fast = timed(radix.composite, framebuffers, mode="over", visibility_order=order)
    _, slow = timed(
        radix.composite, framebuffers, mode="over", visibility_order=order, engine="reference"
    )
    metrics["compositing.vs_reference"] = slow / fast  # x, base engine="reference"

    messages = sizes["exchange_messages"]
    ranks = 64
    payload = np.zeros(256)
    sends = [(i % ranks, (i * 7 + 1) % ranks, payload) for i in range(messages)]
    _, wall = timed(lambda: SimulatedCommunicator(ranks).exchange(sends))
    metrics["runtime.communicator.exchange_us_per_msg"] = wall / messages * 1e6


# -- serving ----------------------------------------------------------------------------

def serving_probes(seed: int, sizes: dict, models: Path, metrics: dict) -> None:
    rng = np.random.default_rng([seed, 0x5E9])
    handle, metrics["serving.model_load_s"] = timed(ModelHandle.load, models)
    slices = sorted(handle.available)
    count = sizes["core_configs"]
    configs = random_configs(rng, count, repeat=0.0, slices=slices)
    canon, wall = timed(lambda: [canonical_config(config) for config in configs])
    metrics["serving.canonical_config_us"] = wall / count * 1e6
    miss, hit = [], []
    for _ in range(CALLS):  # a miss needs an empty cache: a fresh core per call
        core = ServingCore(handle, cache_size=count)
        for seconds in (miss, hit):
            start = time.perf_counter()
            core.predict_canonical(canon)
            seconds.append(time.perf_counter() - start)
    metrics["serving.core.miss_mpred_per_s"] = count / statistics.median(miss) / 1e6
    metrics["serving.core.hit_mpred_per_s"] = count / statistics.median(hit) / 1e6

    requests = sizes["http_requests"]  # at most the server's LRU, so a replay is all hits
    with serve.ServerProcess(models) as server:
        mixed_configs = random_configs(rng, 2 * requests, serve.REPEAT_PROBABILITY, slices)
        mixed = serve.drive(server.port, serve.encode(mixed_configs))
        stats = server.stats()
        metrics["serving.batch_size_mean"] = stats["batching"]["configs"] / stats["batching"]["batches"]
        cache = stats["cache"]
        metrics["serving.cache_hit_ratio"] = cache["hits"] / (cache["hits"] + cache["misses"])
        metrics["serving.p99_ms"] = measure.percentile(sorted(mixed.latencies_ms), 0.99)
        metrics["loadgen.cpu_share"] = mixed.loadgen_cpu_s / mixed.wall_s
        miss, hit = [], []
        for _ in range(CALLS):
            payloads = serve.encode(random_configs(rng, requests, repeat=0.0, slices=slices))
            miss.append(requests / serve.drive(server.port, payloads).wall_s)
            hit.append(requests / serve.drive(server.port, payloads).wall_s)
        metrics["serving.http.miss_pred_per_s"] = statistics.median(miss)
        metrics["serving.http.hit_pred_per_s"] = statistics.median(hit)
        metrics["serving.errors"] = server.stats()["requests"]["errors"]

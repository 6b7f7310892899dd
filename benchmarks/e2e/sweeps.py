"""The three sweep workloads: plan -> sweep -> merge -> report -> load -> predict.

Every stage is a call into a public function of ``repro``; the benchmark times
the calls from outside and reads the data they already return.  The workloads
differ only in their inputs (which layer the generated study makes expensive)
and, for ``sweep_control``, in the extra control-plane stages.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.compositing import Compositor, scene_factory
from repro.dpp import get_instrumentation
from repro.modeling.study import HOST_ARCHITECTURE, StudyConfiguration
from repro.rendering import PHASE_GROUP_ORDER, PHASE_GROUPS, Framebuffer
from repro.reporting import Predictor, generate_report
from repro.serving.core import ServingCore
from repro.study import (
    CorpusCache,
    SweepExecutor,
    build_plan,
    execute_spec,
    load_corpus,
    merge_corpora,
    run_adaptive_rounds,
    run_plan,
    save_corpus,
)
from repro.study.corpus_io import corpus_digest, corpus_to_payload

from benchmarks.e2e import measure
from benchmarks.e2e.inputs import PINNED_SEEDS, random_columns, random_configs
from benchmarks.e2e.trace import NullRecorder

GPU_ARCHITECTURES = ("gpu1-k40m", "gpu-p100", "gpu-v100", "gpu-a100")
ALGORITHMS = ("direct-send", "binary-swap", "radix-k")

#: Span-name family of a render technique (this repo's module names).
RENDER_FAMILY = {
    "raytrace": "raytracer",
    "raster": "rasterizer",
    "volume": "volume.structured",
    "volume_unstructured": "volume.unstructured",
}

#: Pinned sizes.  ``full`` is what BENCHMARK.json runs; ``quick`` finishes each
#: workload in about a second for the tier-1 test.
SCALES = {
    "full": {
        "render_samples": 6,
        "render_image": (128, 160),
        "render_cells": (14, 18),
        "unstructured_image": (56, 72),
        "unstructured_cells": (7, 9),
        "composite_pixels": 48,
        "composite_ranks": (16, 64, 256, 512),
        "control_samples": 40,
        "adaptive_batch": 16,
        "predict_calls": 40,
        "predict_batch": 10_000,
        "control_predict_batch": 1_250,
    },
    "quick": {
        "render_samples": 3,
        "render_image": (24, 32),
        "render_cells": (4, 6),
        "unstructured_image": (16, 24),
        "unstructured_cells": (3, 4),
        "composite_pixels": 24,
        "composite_ranks": (8, 300),
        "control_samples": 6,
        "adaptive_batch": 4,
        "predict_calls": 10,
        "predict_batch": 100,
        "control_predict_batch": 50,
    },
}


def spec_span_name(spec) -> str:
    """``spec.<kind>.<family>``: the span one executed spec is recorded under."""
    return f"spec.{spec.kind}.{spec.algorithm or RENDER_FAMILY[spec.technique]}"


def study_configurations(name: str, seed: int, scale: dict) -> tuple[list[StudyConfiguration], int]:
    """The generated studies of one workload and the ``jobs`` they run with."""
    if name == "sweep_render":
        common = dict(
            task_counts=(1, 4, 8),
            samples_per_technique=scale["render_samples"],
            compositing_task_counts=(4, 16),
            compositing_pixel_sizes=(32, 64),
            seed=seed,
        )
        # Two studies because one size range lets one family swamp the rest:
        # the tet caster costs ~10x the others per pixel.
        return [
            StudyConfiguration(
                techniques=("raytrace", "raster", "volume"),
                image_size_range=scale["render_image"],
                cells_per_task_range=scale["render_cells"],
                **common,
            ),
            StudyConfiguration(
                techniques=("volume_unstructured",),
                image_size_range=scale["unstructured_image"],
                cells_per_task_range=scale["unstructured_cells"],
                **common,
            ),
        ], 1
    if name == "sweep_composite":
        # No host architecture, so no host render: rendering rows are
        # synthesized (~0.1 ms each) and the compositing matrix is the work.
        # Rows above the default 256-rank live budget stream through the
        # cohort engine; the rest run dense.  (ExperimentSpec carries neither
        # compositing_max_live_ranks nor compositing_scenario, so run_plan
        # ignores them; the defaults are what a user's sweep gets.)
        return [
            StudyConfiguration(
                architectures=("gpu1-k40m",),
                compositing_algorithms=ALGORITHMS,
                compositing_task_counts=scale["composite_ranks"],
                compositing_pixel_sizes=(scale["composite_pixels"],),
                seed=seed,
            )
        ], 1
    if name == "sweep_control":
        return [
            StudyConfiguration(
                architectures=GPU_ARCHITECTURES,
                techniques=("raytrace", "raster", "volume", "volume_unstructured"),
                task_counts=(1, 2, 4, 8, 16, 32, 64),
                samples_per_technique=scale["control_samples"],
                compositing_algorithms=ALGORITHMS,
                compositing_task_counts=(2, 4, 8, 16),
                # Smaller than the other workloads' images: with 688 specs instead
                # of the issue's 9,648 the 48 compositing rows must stay under 5 %.
                compositing_pixel_sizes=(16, 24, 32, 48),
                seed=seed,
            )
        ], 2
    raise KeyError(name)


@dataclass
class Repetition:
    """What one repetition produced: timings for the metrics, outputs for the checks."""

    wall_s: float = 0.0
    cpu_s: float = 0.0  #: user + system, pool workers included
    latencies_ms: list[float] = field(default_factory=list)  #: one per prediction call
    predictions: int = 0
    planned: int = 0
    corpus: object = None
    report_dir: Path | None = None
    resume_report: object = None
    resume_digest: str = ""
    bad_predictions: int = 0
    root_span: object = None
    dpp: dict = field(default_factory=dict)  #: primitive counters this repetition added
    #: Traced only: wall-clock seconds inside ``execute_spec``, keyed ``spec.<kind>.<family>``.
    spec_seconds: dict = field(default_factory=dict)

    @property
    def predict_s(self) -> float:
        return sum(self.latencies_ms) / 1e3

    @property
    def attempted(self) -> int:
        return self.planned + self.predictions

    @property
    def failed(self) -> int:
        return len(self.corpus.failures) + self.bad_predictions


class SweepWorkload:
    """One of ``sweep_render`` / ``sweep_composite`` / ``sweep_control``."""

    def __init__(self, name: str, seed: int, quick: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.scale = SCALES["quick" if quick else "full"]
        self.configs, self.jobs = study_configurations(name, seed, self.scale)
        rng = np.random.default_rng([seed, 0x5EED])
        calls = range(self.scale["predict_calls"])
        # The prediction stage's inputs; slices are bound to the fitted suite
        # at run time because which slices fit depends on the corpus.
        if name == "sweep_control":  # ServingCore.predict_rows takes configuration dicts
            batch = self.scale["control_predict_batch"]
            self.predict_inputs = [random_configs(rng, batch, repeat=0.0) for _ in calls]
        else:  # Predictor.predict_configurations takes column arrays
            self.predict_inputs = [random_columns(rng, self.scale["predict_batch"]) for _ in calls]

    # -- lifecycle ----------------------------------------------------------------------
    def setup(self, workdir: Path) -> None:
        """Nothing to build: a sweep's set-up is its imports and its warm-up repetition."""

    def warm_up(self, workdir: Path) -> None:
        self.repetition(workdir, NullRecorder())

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return measure.peak_rss_mb()

    # -- one repetition -----------------------------------------------------------------
    def repetition(self, workdir: Path, rec) -> Repetition:
        out = Repetition()
        cache = CorpusCache(workdir / "cache")
        dpp_before = dpp_totals()
        cpu_before = measure.cpu_seconds()
        start = time.perf_counter()
        with rec.span(f"rep.{self.name}") as out.root_span:
            with rec.span("study.plan"):
                plans = [build_plan(config) for config in self.configs]
            out.planned = sum(len(plan) for plan in plans)
            with rec.span("study.sweep"):
                corpora = [self._sweep(plan, cache, rec) for plan in plans]
            with rec.span("study.merge"):
                corpus = merge_corpora(corpora)
            if self.name == "sweep_control":
                corpus = self._control_plane(plans[0], corpus, cache, workdir, rec, out)
            with rec.span("reporting.report"):
                report = generate_report(corpus, workdir / "report", seed=self.seed)
            with rec.span("reporting.predictor.load"):
                predictor = Predictor.load(report.models_path)
            with rec.span("reporting.predictor.predict"):
                if self.name == "sweep_control":
                    self._predict_rows(report.models_path, out)
                else:
                    self._predict_batches(predictor, out)
            if self.name == "sweep_control":
                with rec.span("study.adaptive"):
                    run_adaptive_rounds(
                        corpus,
                        self.configs[0],
                        rounds=1,
                        batch_size=self.scale["adaptive_batch"],
                        seed=self.seed,
                        jobs=self.jobs,
                        cache=cache,
                    )
        out.wall_s = time.perf_counter() - start
        out.cpu_s = measure.cpu_seconds() - cpu_before
        out.dpp = {key: value - dpp_before[key] for key, value in dpp_totals().items()}
        if rec.enabled:
            out.spec_seconds = self._spec_seconds(plans, rec, out.root_span)
        out.corpus = corpus
        out.report_dir = workdir / "report"
        return out

    def _sweep(self, plan, cache, rec):
        if rec.enabled and self.jobs == 1:
            # Per-spec spans: the executor runs a timing wrapper around the
            # study's own execute_spec, writing rows through the cache; the
            # all-hits run_plan below only assembles them into the corpus.
            def traced(spec):
                with rec.span(spec_span_name(spec)):
                    return execute_spec(spec)

            SweepExecutor(traced, jobs=1, cache=cache).run(plan.specs, resume=False)
            with rec.span("study.assemble"):
                corpus, _ = run_plan(plan, jobs=1, cache=cache)
            return corpus
        corpus, _ = run_plan(plan, jobs=self.jobs, cache=cache, resume=False)
        return corpus

    def _spec_seconds(self, plans, rec, root) -> dict[str, float]:
        """Wall-clock seconds the specs of one traced repetition occupied, by span name."""
        if self.jobs == 1:
            return rec.total_by_name(root, "spec.")
        # Pool workers cannot write spans into this process.  The same specs run
        # once more inline under a stopwatch, after the repetition; spread over
        # ``jobs`` busy workers they occupied about 1/jobs of that on its wall
        # clock.  An estimate, labelled so in the README; without it the spec
        # time would be booked to the study layer.
        inside: dict[str, float] = {}

        def clocked(spec):
            start = time.perf_counter()
            try:
                return execute_spec(spec)
            finally:
                name = spec_span_name(spec)
                inside[name] = inside.get(name, 0.0) + time.perf_counter() - start

        for plan in plans:
            SweepExecutor(clocked, jobs=1).run(plan.specs)
        return {name: seconds / self.jobs for name, seconds in inside.items()}

    def _control_plane(self, plan, corpus, cache, workdir, rec, out: Repetition):
        with rec.span("study.resume"):
            resumed, out.resume_report = run_plan(plan, jobs=self.jobs, cache=cache)
        out.resume_digest = corpus_digest(resumed)
        with rec.span("study.corpus_io.save"):
            path = save_corpus(corpus, workdir / "corpus.json")
        with rec.span("study.corpus_io.load"):
            return load_corpus(path)

    def _predict_batches(self, predictor: Predictor, out: Repetition) -> None:
        slices = [key for key in predictor.available() if key[1] != "compositing"]
        for index, columns in enumerate(self.predict_inputs):
            architecture, technique = slices[index % len(slices)]
            start = time.perf_counter()
            batch = predictor.predict_configurations(architecture, technique, **columns)
            out.latencies_ms.append((time.perf_counter() - start) * 1e3)
            out.predictions += len(batch)
            out.bad_predictions += int(np.count_nonzero(~np.isfinite(batch.seconds)))

    def _predict_rows(self, models_path: Path, out: Repetition) -> None:
        core = ServingCore.from_path(models_path)
        slices = sorted(core.handle.available)
        for index, configs in enumerate(self.predict_inputs):
            architecture, technique = slices[index % len(slices)]
            rows = [{**config, "architecture": architecture, "technique": technique} for config in configs]
            start = time.perf_counter()
            answers, _ = core.predict_rows(rows)
            out.latencies_ms.append((time.perf_counter() - start) * 1e3)
            out.predictions += len(answers)
            out.bad_predictions += sum(1 for row in answers if not np.isfinite(row["seconds"]))

    # -- correctness (outside the timed region) -----------------------------------------
    def check(self, reps: list[Repetition], workdir: Path, golden: dict | None) -> list[str]:
        """Every violated correctness condition, as one line each.

        ``golden`` holds this scale's digests; ``None`` skips the golden
        comparison (while ``--update-golden`` rewrites it).
        """
        problems: list[str] = []
        digests = set()
        failed = sum(rep.failed for rep in reps)
        if failed:
            problems.append(f"{failed} specs or predictions failed")
        for rep in reps:
            corpus = rep.corpus
            rows = len(corpus.records) + len(corpus.compositing_records) + len(corpus.failures)
            if rows != rep.planned:
                problems.append(f"rows {rows} != planned {rep.planned}")
            digests.add(deterministic_digest(corpus))
            if self.name == "sweep_control":
                if rep.resume_report.cache_hits != rep.planned:
                    problems.append(
                        f"resume hit {rep.resume_report.cache_hits} of {rep.planned} cached rows"
                    )
                if rep.resume_digest != corpus_digest(corpus):
                    problems.append("resumed corpus differs from the cold corpus")
        if len(digests) != 1:
            problems.append(f"deterministic corpus part differs between repetitions: {sorted(digests)}")
        if golden is not None:
            # Other seeds have no golden; the repetitions above still have to agree.
            expected = golden.get(self.name, {}).get(str(self.seed))
            if expected is None and self.seed in PINNED_SEEDS:
                problems.append(f"no golden digest for the pinned seed {self.seed}")
            elif expected is not None and digests != {expected}:
                problems.append(f"corpus digest {sorted(digests)} != golden {expected}")
        problems.extend(report_is_reproducible(reps[-1], workdir, self.seed))
        if self.name == "sweep_composite":
            problems.extend(compositing_matches_reference(self.seed, self.scale))
        return problems

    def digest(self, rep: Repetition) -> str:
        return deterministic_digest(rep.corpus)

    def attribution(self, rec, rep: Repetition) -> dict[str, float]:
        return sweep_attribution(rec, rep)


# -- checks -----------------------------------------------------------------------------

def deterministic_digest(corpus) -> str:
    """Digest of the part of a corpus that is a pure function of the inputs.

    Host rows keep their config keys and observed features (rounded to 1e-9);
    their wall-clock fields are dropped.  Synthesized and compositing rows are
    modeled, not measured, and are kept in full.
    """
    payload = corpus_to_payload(corpus)
    for row in payload["records"]:
        if row["architecture"] == HOST_ARCHITECTURE:
            for key in ("phase_seconds", "build_seconds", "frame_seconds"):
                del row[key]
            row["features"] = {k: round(float(v), 9) for k, v in row["features"].items()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def report_is_reproducible(rep: Repetition, workdir: Path, seed: int) -> list[str]:
    """``generate_report`` twice on one corpus must be byte-identical."""
    again = generate_report(rep.corpus, workdir / "report-again", seed=seed)
    problems = []
    for path in again.paths:
        relative = path.relative_to(again.out_dir)
        first = rep.report_dir / relative
        if not first.exists() or first.read_bytes() != path.read_bytes():
            problems.append(f"report artifact {relative} differs between two runs on one corpus")
    return problems


def synthetic_framebuffers(rng: np.random.Generator, ranks: int, size: int) -> list[Framebuffer]:
    """One framebuffer per rank, each with a random opaque-ish block."""
    side = max(size // 3, 1)
    framebuffers = []
    for _ in range(ranks):
        framebuffer = Framebuffer(size, size)
        x0, y0 = (int(v) for v in rng.integers(0, size - side + 1, 2))
        block = (slice(y0, y0 + side), slice(x0, x0 + side))
        framebuffer.rgba[block] = np.concatenate(
            [rng.random((side, side, 3)), np.full((side, side, 1), 0.7)], axis=-1
        )
        framebuffer.depth[block] = rng.random((side, side)) * 10.0
        framebuffers.append(framebuffer)
    return framebuffers


def compositing_matches_reference(seed: int, scale: dict) -> list[str]:
    """Dense rows equal ``composite_reference``; streamed rows respect the live budget."""
    problems = []
    rng = np.random.default_rng([seed, 0xC0])
    size = min(scale["composite_pixels"], 64)
    ranks = min(scale["composite_ranks"][0], 64)
    framebuffers = synthetic_framebuffers(rng, ranks, size)
    order = [float(rank) for rank in range(ranks)]
    budget = 16
    for algorithm in ALGORITHMS:
        compositor = Compositor(algorithm)
        fast = compositor.composite(framebuffers, mode="over", visibility_order=order)
        slow = compositor.composite(
            framebuffers, mode="over", visibility_order=order, engine="reference"
        )
        if not np.allclose(fast.framebuffer.rgba, slow.framebuffer.rgba, atol=1e-10, rtol=0.0):
            problems.append(f"{algorithm}: run-length composite differs from composite_reference")
        streamed_ranks = 4 * budget
        factory = scene_factory("amr", streamed_ranks, size, size, mode="over", seed=seed)
        streamed = compositor.composite_streaming(
            factory, streamed_ranks, size, size, mode="over", max_live_ranks=budget
        )
        if streamed.peak_live_images > budget + 1:
            problems.append(
                f"{algorithm}: {streamed.peak_live_images} live images exceed the budget {budget} + 1"
            )
    return problems


# -- attribution from a traced repetition -----------------------------------------------

LAYER_SHARES = ("rendering", "compositing", "modeling", "study", "reporting", "serving", "loadgen")
DPP_COUNTERS = ("invocations", "elements", "bytes_moved")


def attribution_names() -> list[str]:
    """Every metric a traced repetition attributes; a layer idle in a workload reads 0."""
    names = [f"{layer}.share" for layer in LAYER_SHARES]
    names += ["trace.residual_s", "trace.residual_share", "geometry.bvh_build_share", "dpp.busy_share"]
    names += [f"dpp.{counter}" for counter in DPP_COUNTERS]
    for family in RENDER_FAMILY.values():
        names.append(f"rendering.{family}.spec_share")
        names.append(f"rendering.{family}.harness_share")
        names += [f"rendering.{family}.phase_share.{group}" for group in PHASE_GROUP_ORDER]
    names += [f"compositing.{algorithm}.spec_share" for algorithm in ALGORITHMS]
    return names


def dpp_totals() -> dict[str, float]:
    """The process-global primitive counters, summed over scopes."""
    totals = dict.fromkeys(DPP_COUNTERS + ("seconds",), 0.0)
    for counters in get_instrumentation().snapshot().values():
        for key in totals:
            totals[key] += counters[key]
    return totals


def sweep_attribution(rec, rep: Repetition) -> dict[str, float]:
    """Per-layer shares of one traced repetition's wall time.

    Everything is a share of the repetition wall, so the rows of different
    workloads compare, and a layer that does no work in a workload reads 0.
    """
    root = rep.root_span
    wall = root.seconds
    metrics = dict.fromkeys(attribution_names(), 0.0)
    top = {span.name: span for span in rec.children(root)}
    spec_seconds = rep.spec_seconds

    host_rows = [r for r in rep.corpus.records if r.architecture == HOST_ARCHITECTURE]
    for technique, family in RENDER_FAMILY.items():
        seconds = spec_seconds.get(f"spec.render.{family}", 0.0)
        metrics["rendering.share"] += seconds / wall
        metrics[f"rendering.{family}.spec_share"] = seconds / wall
        groups = dict.fromkeys(PHASE_GROUP_ORDER, 0.0)
        for row in host_rows:
            if row.technique == technique:
                for phase, value in row.phase_seconds.items():
                    groups[PHASE_GROUPS[phase]] += value
                metrics["geometry.bvh_build_share"] += row.phase_seconds.get("bvh_build", 0.0) / wall
        for group, value in groups.items():
            metrics[f"rendering.{family}.phase_share.{group}"] = value / wall
        # Rows keep only the slowest sampled rank's phases, so this is an upper
        # bound on grid build + external_faces + camera + the other sampled rank.
        if seconds:
            metrics[f"rendering.{family}.harness_share"] = 1.0 - sum(groups.values()) / seconds
    for algorithm in ALGORITHMS:
        seconds = spec_seconds.get(f"spec.compositing.{algorithm}", 0.0)
        metrics["compositing.share"] += seconds / wall
        metrics[f"compositing.{algorithm}.spec_share"] = seconds / wall
    metrics["modeling.share"] = (
        sum(v for k, v in spec_seconds.items() if k.startswith("spec.synthetic.")) / wall
    )
    metrics["reporting.share"] = sum(s.seconds for n, s in top.items() if n.startswith("reporting.")) / wall
    # The study layer's own time: its stages minus the specs they ran.
    metrics["study.share"] = (
        sum(s.seconds for n, s in top.items() if n.startswith("study.")) / wall
        - metrics["rendering.share"] - metrics["compositing.share"] - metrics["modeling.share"]
    )
    metrics["trace.residual_s"] = rec.self_seconds(root)
    metrics["trace.residual_share"] = rec.self_seconds(root) / wall
    for counter in DPP_COUNTERS:
        metrics[f"dpp.{counter}"] = rep.dpp[counter]
    metrics["dpp.busy_share"] = rep.dpp["seconds"] / wall
    return metrics

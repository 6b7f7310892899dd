"""The sweep engine: plans, executor isolation, cache/resume, oracle parity.

The two acceptance properties of the engine live here:

* a pool sweep (``jobs=4``) over 48+ configurations is row-for-row identical
  to the serial oracle -- the same plan through the executor's in-process
  ``jobs=1`` loop (config keys exact, features to 1e-10, synthesized timings
  bit-equal) -- and the plan's enumeration order is pinned by a frozen digest;
* a killed-then-resumed sweep completes from cache without re-running any
  finished configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.transforms import Camera
from repro.modeling.study import (
    FailureRecord,
    StudyConfiguration,
    corpus_from_payload,
    corpus_to_payload,
    record_from_payload,
)
from repro.rendering import Framebuffer, make_renderer
from repro.rendering import rays
from repro.rendering.rays import pixels_reaching
from repro.rendering.result import ObservedFeatures, RenderResult
from repro.reporting import ModelSuite
from repro.runtime.decomposition import BlockDecomposition
from repro.simulations.fields import get_simulation_field
from repro.study import (
    CorpusCache,
    SweepExecutor,
    build_plan,
    cache_key,
    execute_spec,
    run_plan,
    run_study,
)
from repro.study import cli as study_cli
from repro.study import corpus_io, experiments
from repro.study.plan import ExperimentSpec, smoke_configuration
from repro.techniques import TECHNIQUES


# ---------------------------------------------------------------------------
# Executor worker functions (module level: must be picklable for the pool)
# ---------------------------------------------------------------------------

def _echo_execute(spec: dict) -> dict:
    return {"row_type": "echo", "value": spec["value"] * 2}


def _flaky_execute(spec: dict) -> dict:
    if spec["value"] == 2:
        raise ValueError("injected failure")
    return {"row_type": "echo", "value": spec["value"] * 2}


def _crashing_execute(spec: dict) -> dict:
    if spec["value"] == 1:
        os._exit(13)
    return {"row_type": "echo", "value": spec["value"] * 2}


def _hanging_execute(spec: dict) -> dict:
    if spec["value"] == 0:
        time.sleep(60.0)
    return {"row_type": "echo", "value": spec["value"] * 2}


class _Spec(dict):
    """A dict spec with the one method the executor's cache reads."""

    def key_payload(self) -> dict:
        return dict(self)


#: The culprit of the chunked-dispatch tests: far enough into the sweep that the
#: workers' observed service time has grown the chunks to many specs.
CULPRIT = 130


def _crash_at_culprit(spec: dict) -> dict:
    if spec["value"] == CULPRIT:
        os._exit(13)
    return {"row_type": "echo", "value": spec["value"] * 2}


def _hang_at_culprit(spec: dict) -> dict:
    if spec["value"] == CULPRIT:
        time.sleep(60.0)
    return {"row_type": "echo", "value": spec["value"] * 2}


def _raise_at_culprit(spec: dict) -> dict:
    if spec["value"] == CULPRIT:
        raise ValueError("injected failure")
    return {"row_type": "echo", "value": spec["value"] * 2}


def _slow_execute(spec: dict) -> dict:
    start = time.monotonic()  # CLOCK_MONOTONIC: one clock for every process of the machine
    time.sleep(0.06)
    return {"row_type": "echo", "value": spec["value"], "start": start, "end": time.monotonic()}


def _cache_writer(root: str, base: int, count: int, barrier) -> None:
    cache = CorpusCache(root, token="t")
    barrier.wait(timeout=30.0)
    for offset in range(count):
        cache.put(cache.key({"x": base + offset}), {"value": base + offset})


# ---------------------------------------------------------------------------
# Generic executor behavior
# ---------------------------------------------------------------------------

class TestSweepExecutor:
    SPECS = [_Spec(value=index) for index in range(6)]

    def test_inline_executes_all(self):
        outcome = SweepExecutor(_echo_execute, jobs=1).run(self.SPECS)
        assert [p["value"] for p in outcome.payloads] == [0, 2, 4, 6, 8, 10]
        assert outcome.executed == 6 and not outcome.failures

    def test_inline_isolates_exceptions(self):
        outcome = SweepExecutor(_flaky_execute, jobs=1).run(self.SPECS)
        assert outcome.payloads[2] is None
        assert [f.index for f in outcome.failures] == [2]
        assert outcome.failures[0].reason == "error"
        assert outcome.failures[0].error_type == "ValueError"
        assert sum(p is not None for p in outcome.payloads) == 5

    def test_pool_matches_inline_order(self):
        outcome = SweepExecutor(_echo_execute, jobs=3).run(self.SPECS)
        assert [p["value"] for p in outcome.payloads] == [0, 2, 4, 6, 8, 10]

    def test_pool_isolates_exceptions(self):
        outcome = SweepExecutor(_flaky_execute, jobs=2).run(self.SPECS)
        assert outcome.payloads[2] is None
        assert [f.index for f in outcome.failures] == [2]
        assert outcome.failures[0].reason == "error"
        assert "injected failure" in outcome.failures[0].message

    def test_pool_isolates_worker_crashes(self):
        outcome = SweepExecutor(_crashing_execute, jobs=2).run(self.SPECS)
        assert outcome.payloads[1] is None
        failures = {f.index: f for f in outcome.failures}
        assert failures[1].reason == "crash"
        # The dead worker was replaced: every other spec still produced a row.
        assert sum(p is not None for p in outcome.payloads) == 5

    def test_pool_enforces_per_experiment_timeout(self):
        start = time.monotonic()
        outcome = SweepExecutor(_hanging_execute, jobs=2, timeout=1.0).run(
            self.SPECS
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, "timed-out worker must be killed, not awaited"
        failures = {f.index: f for f in outcome.failures}
        assert failures[0].reason == "timeout"
        assert sum(p is not None for p in outcome.payloads) == 5

    def test_serial_timeout_enforced_via_one_worker_pool(self):
        # jobs=1 cannot kill an in-process hang, so a timeout-carrying serial
        # run must transparently use a killable one-worker pool.
        outcome = SweepExecutor(_hanging_execute, jobs=1, timeout=1.0).run(
            self.SPECS
        )
        failures = {f.index: f for f in outcome.failures}
        assert failures[0].reason == "timeout"
        assert sum(p is not None for p in outcome.payloads) == 5

    def test_cache_short_circuits_resume(self, tmp_path):
        cache = CorpusCache(tmp_path / "cache", token="t0")
        executor = SweepExecutor(_echo_execute, jobs=1, cache=cache)
        first = executor.run(self.SPECS)
        assert first.executed == 6 and first.cache_hits == 0
        second = executor.run(self.SPECS, resume=True)
        assert second.executed == 0 and second.cache_hits == 6
        assert second.payloads == first.payloads
        third = executor.run(self.SPECS, resume=False)
        assert third.executed == 6 and third.cache_hits == 0

    def test_failures_are_never_cached(self, tmp_path):
        cache = CorpusCache(tmp_path / "cache", token="t0")
        SweepExecutor(_flaky_execute, jobs=1, cache=cache).run(self.SPECS)
        resumed = SweepExecutor(_echo_execute, jobs=1, cache=cache).run(
            self.SPECS, resume=True
        )
        # The previously-failed spec re-executes and succeeds this time.
        assert resumed.cache_hits == 5 and resumed.executed == 1
        assert resumed.payloads[2] == {"row_type": "echo", "value": 4}


class TestChunkedDispatch:
    """Sub-millisecond specs travel many to a message; isolation stays per spec."""

    SPECS = [_Spec(value=index) for index in range(240)]

    @pytest.fixture
    def chunks(self, monkeypatch):
        """The index lists of every message the dispatcher sent, in order."""
        from repro.study import executor

        sent: list[list[int]] = []
        assign = executor._Worker.assign

        def recording(worker, items, timeout):
            sent.append([index for index, _spec in items])
            assign(worker, items, timeout)

        monkeypatch.setattr(executor._Worker, "assign", recording)
        return sent

    @pytest.fixture
    def roomy_chunks(self, chunks, monkeypatch):
        """``chunks`` with 100x the work per message: a loaded machine may make a
        trivial spec look slow, and the isolation tests want the culprit strictly
        inside a chunk -- this leaves the cap and the tail share to size them
        (1, 1, 59, 44, 33 -> the culprit's chunk is 105..137)."""
        from repro.study import executor

        monkeypatch.setattr(executor, "_CHUNK_SECONDS", 1.0)
        return chunks

    def _assert_only_the_culprit_failed(self, outcome, chunks, reason):
        assert [(f.index, f.reason) for f in outcome.failures] == [(CULPRIT, reason)]
        assert outcome.payloads[CULPRIT] is None
        # plan = rows + failures, rows in plan order.
        assert [p["value"] for p in outcome.payloads if p is not None] == [
            2 * index for index in range(240) if index != CULPRIT
        ]
        assert outcome.executed == 239
        # The culprit had chunk-mates, before and after it, and they all produced rows.
        culprit_chunk = next(chunk for chunk in chunks if CULPRIT in chunk)
        assert culprit_chunk[0] < CULPRIT < culprit_chunk[-1]

    def test_crash_fails_one_spec_and_requeues_its_chunk_mates(self, roomy_chunks):
        outcome = SweepExecutor(_crash_at_culprit, jobs=2).run(self.SPECS)
        self._assert_only_the_culprit_failed(outcome, roomy_chunks, "crash")

    def test_timeout_fails_one_spec_and_requeues_its_chunk_mates(self, roomy_chunks):
        start = time.monotonic()
        outcome = SweepExecutor(_hang_at_culprit, jobs=2, timeout=1.0).run(
            self.SPECS
        )
        # The deadline restarts at each reply: one timeout, not one per chunk-mate.
        assert time.monotonic() - start < 10.0
        self._assert_only_the_culprit_failed(outcome, roomy_chunks, "timeout")

    def test_exception_fails_one_spec_and_the_chunk_carries_on(self, roomy_chunks):
        outcome = SweepExecutor(_raise_at_culprit, jobs=2).run(self.SPECS)
        self._assert_only_the_culprit_failed(outcome, roomy_chunks, "error")
        assert outcome.failures[0].error_type == "ValueError"

    def test_chunks_never_exceed_the_tail_share(self, chunks):
        SweepExecutor(_echo_execute, jobs=2).run(self.SPECS)
        assert sorted(index for chunk in chunks for index in chunk) == list(range(240))
        remaining = 240
        for chunk in chunks:
            assert len(chunk) <= max(1, remaining // 4)
            remaining -= len(chunk)

    def test_workers_exit_when_the_dispatcher_is_killed(self, tmp_path):
        # ``kill -9`` on a sweep gives it no chance to stop its pool; the
        # orphaned workers must notice the closed pipe and leave on their own.
        script = textwrap.dedent(
            """
            import os, sys, time
            from repro.study import SweepExecutor

            def execute(spec):
                open(os.path.join(sys.argv[1], f"worker-{os.getpid()}"), "w").close()
                time.sleep(0.02)
                return {"value": spec["value"]}

            specs = [{"value": index} for index in range(100_000)]
            SweepExecutor(execute, jobs=2).run(specs)
            """
        )
        sweep = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)])
        try:
            deadline = time.monotonic() + 60.0
            while len(list(tmp_path.glob("worker-*"))) < 2:
                assert sweep.poll() is None and time.monotonic() < deadline, "the pool never started"
                time.sleep(0.02)
        finally:
            sweep.kill()
            sweep.wait(timeout=30.0)
        workers = [int(path.name.split("-")[1]) for path in tmp_path.glob("worker-*")]

        def running(pid: int) -> bool:
            try:  # a zombie nobody reaps has exited all the same
                state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except OSError:
                return False
            return state != "Z"

        deadline = time.monotonic() + 20.0
        while any(running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        leaked = [pid for pid in workers if running(pid)]
        for pid in leaked:
            os.kill(pid, 9)
        assert not leaked, f"orphaned workers {leaked} outlived their dispatcher"

    def test_slow_specs_travel_alone_and_overlap(self, chunks):
        outcome = SweepExecutor(_slow_execute, jobs=2).run(self.SPECS[:6])
        assert all(len(chunk) == 1 for chunk in chunks) and len(chunks) == 6
        first, second = outcome.payloads[0], outcome.payloads[1]
        assert max(first["start"], second["start"]) < min(first["end"], second["end"])


class TestCorpusCache:
    def test_key_is_order_insensitive_and_content_sensitive(self):
        a = cache_key({"x": 1, "y": 2}, token="t")
        b = cache_key({"y": 2, "x": 1}, token="t")
        assert a == b
        assert cache_key({"x": 1, "y": 3}, token="t") != a
        assert cache_key({"x": 1, "y": 2}, token="other") != a

    @staticmethod
    def _filled(root, count=4):
        """A cache with ``count`` rows in one segment: ``(keys, segment path)``."""
        cache = CorpusCache(root, token="t")
        keys = [cache.key({"x": index}) for index in range(count)]
        for index, key in enumerate(keys):
            cache.put(key, {"row_type": "echo", "value": index}, spec_payload={"x": index})
        [segment] = sorted(root.glob("*.rows"))
        return keys, segment

    @staticmethod
    def _values(root, keys):
        cache = CorpusCache(root, token="t")
        return [(cache.get(key) or {}).get("value") for key in keys]

    def test_corrupt_entries_read_as_misses(self, tmp_path):
        keys, segment = self._filled(tmp_path)
        lines = segment.read_bytes().splitlines(keepends=True)
        assert [line[:64].decode() for line in lines] == keys and all(line[64:65] == b"\t" for line in lines)
        # An undecodable record under a valid key, and a line that is no record at all.
        lines[1] = keys[1].encode() + b"\t{not json\n"
        lines.insert(3, b"\x00\xff garbage without a key\n")
        segment.write_bytes(b"".join(lines))
        assert self._values(tmp_path, keys) == [0, None, 2, 3]
        cache = CorpusCache(tmp_path, token="t")
        cache.get(keys[0]), cache.get(keys[1])
        assert (cache.hits, cache.misses) == (1, 1)

    def test_torn_final_line_is_a_miss_and_earlier_rows_hit(self, tmp_path):
        keys, segment = self._filled(tmp_path)
        data = segment.read_bytes()
        last_line = data.splitlines(keepends=True)[-1]
        for kept in (len(last_line) - 1, len(last_line) // 2, 70, 3):  # newline lost ... key cut
            segment.write_bytes(data[: len(data) - len(last_line) + kept])
            assert self._values(tmp_path, keys) == [0, 1, 2, None]

    def test_embedded_key_must_match_the_index_key(self, tmp_path):
        keys, segment = self._filled(tmp_path, count=2)
        lines = segment.read_bytes().splitlines(keepends=True)
        # keys[0]'s record filed under keys[1]: a hit would return the wrong experiment's row.
        lines[1] = keys[1].encode() + lines[0][64:]
        segment.write_bytes(b"".join(lines))
        assert self._values(tmp_path, keys) == [0, None]

    def test_duplicate_key_last_complete_line_wins(self, tmp_path):
        cache = CorpusCache(tmp_path, token="t")
        key = cache.key({"x": 1})
        cache.put(key, {"value": "first"})
        assert cache.get(key) == {"value": "first"}
        cache.put(key, {"value": "second"})
        assert cache.get(key) == {"value": "second"}  # a cache sees its own later puts
        assert CorpusCache(tmp_path, token="t").get(key) == {"value": "second"}
        assert len(cache) == 1
        [segment] = sorted(tmp_path.glob("*.rows"))
        segment.write_bytes(segment.read_bytes()[:-5])  # the second write was cut short
        assert CorpusCache(tmp_path, token="t").get(key) == {"value": "first"}
        # A later writer's segment sorts after, and wins over, an earlier one's.
        later = CorpusCache(tmp_path, token="t")
        later.put(key, {"value": "third"})
        assert len(sorted(tmp_path.glob("*.rows"))) == 2
        assert CorpusCache(tmp_path, token="t").get(key) == {"value": "third"}

    def test_two_processes_write_one_root_concurrently(self, tmp_path):
        context = multiprocessing.get_context()
        barrier = context.Barrier(2)
        writers = [
            context.Process(target=_cache_writer, args=(str(tmp_path), base, 150, barrier))
            for base in (0, 1000)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60.0)
            assert writer.exitcode == 0
        assert len(sorted(tmp_path.glob("*.rows"))) == 2  # one segment per writer
        reader = CorpusCache(tmp_path, token="t")
        assert len(reader) == 300
        for base in (0, 1000):
            for offset in range(150):
                assert reader.get(reader.key({"x": base + offset})) == {"value": base + offset}
        assert reader.misses == 0

    def test_len_and_clear(self, tmp_path):
        cache = CorpusCache(tmp_path, token="t")
        for index in range(3):
            cache.put(cache.key({"x": index}), {"v": index})
        assert len(cache) == 3
        assert cache.key({"x": 2}) in cache and cache.key({"x": 3}) not in cache
        assert len(CorpusCache(tmp_path, token="t")) == 3
        assert cache.clear() == 3
        assert len(cache) == 0 and cache.key({"x": 2}) not in cache
        assert not list(tmp_path.iterdir())
        # The cleared cache keeps working, in a new segment.
        cache.put(cache.key({"x": 9}), {"v": 9})
        assert len(cache) == 1 and len(CorpusCache(tmp_path, token="t")) == 1


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

class TestPlan:
    CONFIG = StudyConfiguration(samples_per_technique=4, seed=7)

    def test_expansion_is_deterministic(self):
        first = build_plan(self.CONFIG)
        second = build_plan(self.CONFIG)
        assert first.specs == second.specs
        assert len(first) == 2 * 3 * 4 + 6 * 5  # host+synthetic rows, compositing matrix

    def test_counts_and_breakdown(self):
        plan = build_plan(self.CONFIG)
        counts = plan.counts()
        assert counts == {"render": 12, "synthetic": 12, "compositing": 30}
        assert sum(plan.breakdown().values()) == len(plan)

    def test_spec_payload_round_trip(self, spec_from_payload):
        plan = build_plan(self.CONFIG)
        for spec in plan.specs[:5]:
            assert spec_from_payload(spec.key_payload()) == spec

    def test_payload_and_corpus_key_agree_with_the_dataclass(self, spec_from_payload):
        # key_payload() skips the asdict deep copy and spec_corpus_key(spec)
        # reads attributes; both must stay what the generic forms say.
        from repro.study.plan import full_configuration, smoke_configuration, spec_corpus_key

        for config in (smoke_configuration(), full_configuration()):
            for spec in build_plan(config).specs:
                payload = spec.key_payload()
                assert payload == dict(sorted(dataclasses.asdict(spec).items()))
                assert list(payload) == sorted(payload)
                assert spec_corpus_key(spec) == spec_corpus_key(payload)
                assert spec_from_payload(json.loads(json.dumps(payload))) == spec

    def test_compositing_specs_carry_the_streaming_knobs(self, spec_from_payload):
        config = dataclasses.replace(
            self.CONFIG,
            compositing_algorithms=("radix-k",),
            compositing_task_counts=(16,),
            compositing_max_live_ranks=8,
            compositing_scenario="amr",
            compositing_radices=(4, 4),
        )
        for spec in build_plan(config).specs:
            knobs = (spec.compositing_max_live_ranks, spec.compositing_scenario, spec.compositing_radices)
            assert knobs == ((8, "amr", (4, 4)) if spec.kind == "compositing" else (0, "", ()))
            assert spec_from_payload(json.loads(json.dumps(spec.key_payload()))) == spec
        default = build_plan(dataclasses.replace(config, compositing_scenario="uniform")).specs[-1]
        assert cache_key(default.key_payload(), token="t") != cache_key(spec.key_payload(), token="t")

    def test_compositing_can_be_excluded(self):
        plan = build_plan(self.CONFIG, include_compositing=False)
        assert plan.counts()["compositing"] == 0

    def test_full_preset_sweeps_unstructured_at_full_resolution(self):
        # The fragment-sorted sampler removed the unstructured perf cliff, so
        # the full preset now stratifies all four families -- unstructured
        # included -- up to the benchmark's 192^2 ceiling.
        from repro.study.plan import full_configuration

        config = full_configuration()
        assert "volume_unstructured" in config.techniques
        assert config.image_size_range == (64, 192)
        plan = build_plan(config)
        unstructured = [
            spec
            for spec in plan.specs
            if spec.kind == "render" and spec.technique == "volume_unstructured"
        ]
        assert len(unstructured) == config.samples_per_technique
        assert max(spec.image_width for spec in unstructured) > 160

    def test_unstructured_experiment_phases_follow_schema(self):
        # Section 5.8 features roll phases up through the standard schema;
        # every phase the unstructured renderer reports must be registered.
        from repro.rendering.result import PHASE_GROUPS

        config = StudyConfiguration(
            simulations=("kripke",),
            techniques=("volume_unstructured",),
            task_counts=(2,),
            samples_per_technique=1,
            image_size_range=(32, 40),
            cells_per_task_range=(4, 5),
            samples_in_depth=12,
            seed=9,
        )
        spec = dataclasses.replace(
            build_plan(config).specs[0], cells_per_task=4, image_width=32, image_height=32
        )
        assert (spec.kind, spec.simulation, spec.num_tasks) == ("render", "kripke", 2)
        record = record_from_payload(execute_spec(spec))
        assert record.samples_in_depth == 12
        assert record.technique == "volume_unstructured"
        assert set(record.phase_seconds) <= set(PHASE_GROUPS)
        grouped = {}
        for phase, seconds in record.phase_seconds.items():
            grouped[PHASE_GROUPS[phase]] = grouped.get(PHASE_GROUPS[phase], 0.0) + seconds
        assert sum(grouped.values()) == pytest.approx(record.total_seconds)
        assert record.frame_seconds > 0.0


# ---------------------------------------------------------------------------
# The Section 5.4 rule: which sampled rank becomes the row
# ---------------------------------------------------------------------------

def _render_spec(**overrides) -> ExperimentSpec:
    """A small multi-rank host render spec; keywords replace its fields."""
    values = dict(
        kind="render",
        base_seed=0,
        architecture="cpu-host",
        technique="raytrace",
        simulation="kripke",
        num_tasks=8,
        cells_per_task=3,
        image_width=24,
        image_height=24,
        samples_in_depth=8,
        max_sampled_ranks=3,
    )
    return ExperimentSpec(**{**values, **overrides})


def _block_camera(spec: ExperimentSpec) -> tuple[BlockDecomposition, Camera]:
    decomposition = BlockDecomposition(spec.num_tasks, spec.cells_per_task)
    camera = Camera.framing_bounds(
        decomposition.global_bounds, spec.image_width, spec.image_height
    )
    return decomposition, camera


def _render_rank(spec: ExperimentSpec, rank: int) -> RenderResult:
    decomposition, camera = _block_camera(spec)
    grid = decomposition.block_grid_with_field(rank, "scalar", get_simulation_field(spec.simulation))
    renderer = make_renderer(spec.technique, grid, "scalar", spec.samples_in_depth)
    return renderer.render(camera)


def _exhaustive_features(spec: ExperimentSpec) -> ObservedFeatures:
    """The oracle: render *every* sampled rank, keep the largest workload."""
    ranks = experiments._sampled_ranks(spec.num_tasks, spec.max_sampled_ranks)
    results = [_render_rank(spec, rank) for rank in ranks]
    return max(
        enumerate(results),
        key=lambda pair: (pair[1].features.active_pixels, pair[1].features.objects, -pair[0]),
    )[1].features


@pytest.fixture
def rendered_origins(monkeypatch):
    """Origins of the blocks ``run_experiment`` hands to ``make_renderer``, in call order."""
    origins = []

    def spying_make_renderer(name, grid, field_name, samples_in_depth):
        origins.append(tuple(grid.origin))
        return make_renderer(name, grid, field_name, samples_in_depth)

    monkeypatch.setattr(experiments, "make_renderer", spying_make_renderer)
    return origins


def _inconclusive_bounds(monkeypatch):
    """Every rank's bound becomes the whole image: nothing can be certified."""
    monkeypatch.setattr(
        experiments,
        "pixels_reaching",
        lambda camera, boxes: [camera.width * camera.height] * len(boxes),
    )


class TestSlowestRankSelection:
    """``run_experiment`` renders only what it must and records the exhaustive row."""

    @pytest.mark.parametrize("max_sampled_ranks", [2, 3, 4])
    @pytest.mark.parametrize("num_tasks", [2, 4, 8])
    @pytest.mark.parametrize("technique", list(TECHNIQUES))
    def test_row_equals_rendering_every_sampled_rank(
        self, technique, num_tasks, max_sampled_ranks
    ):
        spec = _render_spec(
            technique=technique, num_tasks=num_tasks, max_sampled_ranks=max_sampled_ranks
        )
        assert experiments.run_experiment(spec).features == _exhaustive_features(spec)

    @pytest.mark.parametrize("technique", list(TECHNIQUES))
    @settings(max_examples=40, deadline=None)
    @given(
        num_tasks=st.integers(1, 12),
        cells=st.integers(1, 5),
        width=st.integers(1, 40),
        height=st.integers(1, 40),
        data=st.data(),
    )
    def test_pixel_bound_covers_the_rendered_active_pixels(
        self, technique, num_tasks, cells, width, height, data
    ):
        # The certificate the pruning rests on.  A technique row that lights a
        # pixel whose center ray misses its block fails here.
        rank = data.draw(st.integers(0, num_tasks - 1))
        spec = _render_spec(
            technique=technique,
            num_tasks=num_tasks,
            cells_per_task=cells,
            image_width=width,
            image_height=height,
        )
        decomposition, camera = _block_camera(spec)
        (bound,) = pixels_reaching(camera, [decomposition.block_bounds(rank)])
        assert bound >= _render_rank(spec, rank).features.active_pixels

    @pytest.mark.parametrize("rank", [0, 7])
    @pytest.mark.parametrize("technique", list(TECHNIQUES))
    def test_a_corner_block_renders_as_on_the_whole_screen(self, technique, rank, monkeypatch):
        # Rays and the pixel bound come from the block's screen footprint, a
        # strict sub-rectangle here; emitting every pixel must change no byte
        # of the image, no feature and no bound.
        spec = _render_spec(technique=technique)  # 8 tasks
        decomposition, camera = _block_camera(spec)
        block = decomposition.block_bounds(rank)
        assert len(rays.screen_footprint(camera, block)) < camera.width * camera.height
        result, bound = _render_rank(spec, rank), pixels_reaching(camera, [block])
        monkeypatch.setattr(
            rays, "screen_footprint", lambda camera, bounds: np.arange(camera.width * camera.height)
        )
        oracle, oracle_bound = _render_rank(spec, rank), pixels_reaching(camera, [block])
        assert result.framebuffer.rgba.tobytes() == oracle.framebuffer.rgba.tobytes()
        assert result.framebuffer.depth.tobytes() == oracle.framebuffer.depth.tobytes()
        assert result.features == oracle.features
        assert bound == oracle_bound

    @pytest.mark.parametrize("technique", list(TECHNIQUES))
    def test_an_inconclusive_bound_renders_the_rank(
        self, technique, monkeypatch, rendered_origins
    ):
        spec = _render_spec(technique=technique)  # 8 tasks, ranks 0 / 4 / 7 sampled
        pruned = experiments.run_experiment(spec)
        assert 1 <= len(rendered_origins) < 3
        del rendered_origins[:]
        _inconclusive_bounds(monkeypatch)
        exhaustive = experiments.run_experiment(spec)
        decomposition, _ = _block_camera(spec)
        assert rendered_origins == [
            tuple(decomposition.block_bounds(rank).low) for rank in (0, 4, 7)
        ]
        assert exhaustive.features == pruned.features

    @pytest.mark.parametrize("real_bounds", [True, False])
    def test_an_exact_tie_keeps_the_lowest_rank(self, real_bounds, monkeypatch):
        # Every block reports the workload that equals rank 0's bound, the
        # smallest, so rank 0 is visited last with a bound that is *not* below
        # the best: a non-strict comparison would skip it and keep rank 4.
        # Which block a result came from is smuggled out through a feature the
        # selection does not read.
        spec = _render_spec()  # 8 tasks, ranks 0 / 4 / 7 sampled
        decomposition, camera = _block_camera(spec)
        blocks = {rank: decomposition.block_bounds(rank) for rank in (0, 4, 7)}
        bounds = pixels_reaching(camera, list(blocks.values()))
        assert bounds[0] < min(bounds[1:])
        rank_at = {tuple(box.low): rank for rank, box in blocks.items()}

        class TiedRenderer:
            def __init__(self, name, grid, field_name, samples_in_depth):
                self.rank = rank_at[tuple(grid.origin)]

            def render(self, camera):
                features = ObservedFeatures(
                    objects=7, active_pixels=bounds[0], cells_spanned=self.rank
                )
                return RenderResult(Framebuffer(camera.width, camera.height), {}, features)

        monkeypatch.setattr(experiments, "make_renderer", TiedRenderer)
        if not real_bounds:
            _inconclusive_bounds(monkeypatch)
        assert experiments.run_experiment(spec).features.cells_spanned == 0

    def test_smoke_preset_renders_one_block_per_spec(self, rendered_origins):
        specs = [spec for spec in build_plan(smoke_configuration()).specs if spec.kind == "render"]
        assert specs and all(spec.num_tasks > 1 < spec.max_sampled_ranks for spec in specs)
        for spec in specs:
            experiments.run_experiment(spec)
        assert len(rendered_origins) == len(specs)

    @pytest.mark.parametrize(
        "override, error",
        [
            ({"technique": "does-not-exist"}, ValueError),
            ({"simulation": "not-a-simulation"}, ValueError),
            ({"dpp_device": "not-a-device"}, ValueError),
            ({"max_sampled_ranks": 0}, ValueError),
        ],
        ids=["technique", "simulation", "device", "max_sampled_ranks"],
    )
    def test_nothing_is_rendered_before_a_broken_spec_raises(
        self, override, error, rendered_origins
    ):
        with pytest.raises(error):
            experiments.run_experiment(_render_spec(**override))
        assert rendered_origins == []

    @pytest.mark.parametrize("value", [0, -1])
    def test_sampling_no_rank_fails_the_plan_not_its_specs(self, value):
        message = f"max_sampled_ranks must be at least 1 for a host render, got {value}"
        config = dataclasses.replace(smoke_configuration(), max_sampled_ranks=value)
        with pytest.raises(ValueError, match=message):
            build_plan(config)
        with pytest.raises(ValueError, match=message):
            run_plan(build_plan(config))
        # No host renders planned, nothing to sample: the plan stands.
        modeled = dataclasses.replace(config, architectures=("gpu1-k40m",))
        assert len(build_plan(modeled)) == len(
            build_plan(dataclasses.replace(modeled, max_sampled_ranks=2))
        )
        # A stale spec still carrying the value is one ordinary failure row.
        stale = _render_spec(max_sampled_ranks=value)
        corpus, report = run_plan(dataclasses.replace(build_plan(modeled), specs=[stale]), jobs=1)
        assert report.failed == 1
        (failure,) = corpus.failures
        assert (failure.error_type, failure.message) == ("ValueError", message)


# ---------------------------------------------------------------------------
# Engine vs serial oracle (the acceptance differential)
# ---------------------------------------------------------------------------

ORACLE_CONFIG = StudyConfiguration(
    samples_per_technique=8,
    task_counts=(1, 2, 4),
    image_size_range=(48, 96),
    cells_per_task_range=(6, 12),
    samples_in_depth=24,
    seed=123,
    compositing_task_counts=(2, 4),
    compositing_pixel_sizes=(32, 48),
    compositing_algorithms=("direct-send", "binary-swap", "radix-k"),
)


# The serial oracle is the executor's in-process path: ``jobs=1`` is a bare
# loop over the plan (no pool, no pipes, no cache).  The pool must agree with
# it row for row, and ``test_plan_enumeration_is_frozen`` pins the order both
# walk.


@pytest.fixture(scope="module")
def oracle_corpus():
    corpus, _report = run_plan(build_plan(ORACLE_CONFIG), jobs=1)
    return corpus


@pytest.fixture(scope="module")
def engine_corpus():
    corpus, _report = run_plan(build_plan(ORACLE_CONFIG), jobs=4)
    return corpus


def _config_key(record):
    return (
        record.architecture,
        record.technique,
        record.simulation,
        record.num_tasks,
        record.cells_per_task,
        record.image_width,
        record.image_height,
    )


def _plan_digest(config: StudyConfiguration) -> str:
    labels = "\n".join(spec.label() for spec in build_plan(config).specs)
    return hashlib.sha256(labels.encode()).hexdigest()


class TestEngineMatchesOracle:
    def test_plan_enumeration_is_frozen(self):
        # Hex literals recorded at the commit that still carried the
        # hand-written serial loop, whose order the oracle test there proved
        # equal to ``build_plan``'s: a reordered or re-drawn matrix fails here.
        assert _plan_digest(ORACLE_CONFIG) == (
            "a2283fbbf8b2ec5a3be55fb8b76a9b2523721946333bc3cb82e6bdc5640d0a66"
        )
        assert _plan_digest(smoke_configuration()) == (
            "ca202dc8ddeb705ceb0f88eb8212778ec58630264babca54dbfc327e78de3611"
        )
        two_devices = dataclasses.replace(ORACLE_CONFIG, dpp_devices=("serial", "vectorized"))
        assert _plan_digest(two_devices) == (
            "fe4244f8b0945c92594a9fe3bf1a14b1abf44c391e93f09a379704bca2bf60e8"
        )

    def test_sweep_covers_at_least_48_configurations(self, oracle_corpus):
        assert len(oracle_corpus.records) >= 48

    def test_rendering_rows_match(self, oracle_corpus, engine_corpus):
        assert len(engine_corpus.records) == len(oracle_corpus.records)
        for serial, parallel in zip(oracle_corpus.records, engine_corpus.records):
            assert _config_key(serial) == _config_key(parallel)
            serial_features = serial.features.as_dict()
            parallel_features = parallel.features.as_dict()
            for name in serial_features:
                assert serial_features[name] == pytest.approx(parallel_features[name], abs=1e-10)

    def test_synthetic_timings_are_bit_equal(self, oracle_corpus, engine_corpus):
        pairs = [
            (serial, parallel)
            for serial, parallel in zip(oracle_corpus.records, engine_corpus.records)
            if serial.architecture != "cpu-host"
        ]
        assert pairs, "expected synthetic rows in the oracle corpus"
        for serial, parallel in pairs:
            assert serial.phase_seconds == parallel.phase_seconds
            assert serial.build_seconds == parallel.build_seconds
            assert serial.frame_seconds == parallel.frame_seconds

    def test_compositing_rows_match(self, oracle_corpus, engine_corpus):
        assert len(engine_corpus.compositing_records) == len(oracle_corpus.compositing_records)
        for serial, parallel in zip(
            oracle_corpus.compositing_records, engine_corpus.compositing_records
        ):
            assert (serial.algorithm, serial.num_tasks, serial.pixels) == (
                parallel.algorithm,
                parallel.num_tasks,
                parallel.pixels,
            )
            assert serial.average_active_pixels == pytest.approx(
                parallel.average_active_pixels, abs=1e-10
            )
            assert serial.seconds == pytest.approx(parallel.seconds, abs=1e-10)

    def test_no_failures_on_the_happy_path(self, engine_corpus):
        assert engine_corpus.failures == []

    def test_engine_corpus_fits_models(self, engine_corpus):
        suite = ModelSuite.fit_corpus(engine_corpus)
        assert not suite.failures
        assert len(suite.entries) == 6
        assert all(np.isfinite(entry.model.r_squared) for entry in suite.entries.values())


class TestCompositingKnobsReachTheEngine:
    """``run_plan`` honours the streaming budget, scenario and radix schedule."""

    CONFIG = StudyConfiguration(
        architectures=("gpu1-k40m",),
        techniques=("raytrace",),
        samples_per_technique=1,
        compositing_algorithms=("direct-send", "binary-swap", "radix-k"),
        compositing_task_counts=(16,),
        compositing_pixel_sizes=(32,),
        compositing_max_live_ranks=8,
        compositing_scenario="amr",
        seed=11,
    )

    def test_streamed_scenario_rows_match_the_oracle(self):
        engine, report = run_plan(build_plan(self.CONFIG), jobs=1)
        assert report.failed == 0
        oracle = run_study(self.CONFIG, jobs=2)  # the knobs survive the pipe to a worker
        assert engine.compositing_records == oracle.compositing_records
        assert len(engine.compositing_records) == 3
        uniform, _ = run_plan(
            build_plan(dataclasses.replace(self.CONFIG, compositing_scenario="uniform")), jobs=1
        )
        for amr_row, uniform_row in zip(engine.compositing_records, uniform.compositing_records):
            assert amr_row != uniform_row

    def test_explicit_radices_reach_the_compositor(self):
        config = dataclasses.replace(
            self.CONFIG, compositing_algorithms=("radix-k",), compositing_radices=(2, 8)
        )
        engine, _ = run_plan(build_plan(config), jobs=1)
        assert engine.compositing_records == run_study(config, jobs=2).compositing_records
        factored, _ = run_plan(
            build_plan(dataclasses.replace(config, compositing_radices=None)), jobs=1
        )
        assert engine.compositing_records != factored.compositing_records


# ---------------------------------------------------------------------------
# Resume and failure semantics at the plan level
# ---------------------------------------------------------------------------

# Synthetic + compositing only (no host rendering): executes in milliseconds.
FAST_CONFIG = StudyConfiguration(
    architectures=("gpu1-k40m",),
    samples_per_technique=6,
    seed=21,
    compositing_task_counts=(2, 4),
    compositing_pixel_sizes=(32,),
)


class TestResumeSemantics:
    def test_killed_sweep_resumes_without_rerunning(self, tmp_path):
        cache = CorpusCache(tmp_path / "cache")
        plan = build_plan(FAST_CONFIG)
        half = len(plan.specs) // 2

        # A sweep killed halfway: only the first half of the plan finished
        # (every finished row is in the cache, nothing else is).
        partial = dataclasses.replace(plan, specs=plan.specs[:half])
        _corpus, report = run_plan(partial, jobs=1, cache=cache, resume=True)
        assert report.executed == half

        # The restarted sweep completes from cache: finished configs are
        # never re-executed, the rest run now.
        corpus, report = run_plan(plan, jobs=1, cache=cache, resume=True)
        assert report.cache_hits == half
        assert report.executed == len(plan.specs) - half
        assert len(corpus.records) + len(corpus.compositing_records) == len(plan.specs)

        # A third run is 100% cache hits (the CI sweep-smoke assertion).
        _corpus, report = run_plan(plan, jobs=1, cache=cache, resume=True)
        assert report.cache_hits == len(plan.specs)
        assert report.executed == 0

    def test_resumed_rows_equal_fresh_rows(self, tmp_path):
        plan = build_plan(FAST_CONFIG)
        fresh, _ = run_plan(plan, jobs=1)
        cache = CorpusCache(tmp_path / "cache")
        run_plan(plan, jobs=1, cache=cache)
        resumed, report = run_plan(plan, jobs=1, cache=cache, resume=True)
        assert report.executed == 0
        for a, b in zip(fresh.records, resumed.records):
            assert _config_key(a) == _config_key(b)
            assert a.phase_seconds == b.phase_seconds

    def test_strict_run_raises_instead_of_shrinking_the_corpus(self, monkeypatch):
        # Library entry points keep the pre-engine contract: an experiment
        # failure is loud, never a silently smaller corpus under the fits.
        # Every host render fails in-process (jobs=1) once it reaches a renderer.
        def failing_make_renderer(*args):
            raise RuntimeError("renderer unavailable")

        monkeypatch.setattr(experiments, "make_renderer", failing_make_renderer)
        config = StudyConfiguration(
            architectures=("cpu-host",),
            techniques=("raytrace",),
            samples_per_technique=2,
            task_counts=(1,),
            seed=5,
        )
        with pytest.raises(RuntimeError, match="2 of 2 experiments failed"):
            run_study(config, include_compositing=False)
        corpus, _report = run_plan(build_plan(config, include_compositing=False))
        assert len(corpus.failures) == 2 and corpus.records == []
        assert corpus.compositing_records == []
        # With the compositing matrix the failures stay and its rows land.
        config = dataclasses.replace(
            config, compositing_task_counts=(2,), compositing_pixel_sizes=(16,)
        )
        with pytest.raises(RuntimeError, match="2 of 3 experiments failed"):
            run_study(config)
        corpus, _report = run_plan(build_plan(config))
        assert len(corpus.failures) == 2 and len(corpus.compositing_records) == 1

    def test_broken_config_records_failure_row(self, monkeypatch):
        # A technique the table does not hold can only arrive from a stale plan
        # file or cache (build_plan rejects it): it degrades to one ordinary
        # failure row, the same message on the synthetic and the render path,
        # and the render path spends nothing on it.
        plan = build_plan(FAST_CONFIG, include_compositing=False)
        specs = list(plan.specs)
        specs[3] = dataclasses.replace(specs[3], technique="does-not-exist")
        specs.append(dataclasses.replace(specs[3], kind="render", architecture="cpu-host"))
        broken = dataclasses.replace(plan, specs=specs)
        monkeypatch.setattr(
            BlockDecomposition, "block_grid_with_field", lambda *a: pytest.fail("built a block")
        )
        corpus, report = run_plan(broken, jobs=1)
        assert report.failed == 2
        assert len(corpus.records) == len(specs) - 2
        assert [failure.kind for failure in corpus.failures] == ["synthetic", "render"]
        for failure in corpus.failures:
            assert failure.reason == "error"
            assert failure.spec["technique"] == "does-not-exist"
            assert failure.error_type == "ValueError"
            assert failure.message == (
                "unknown technique 'does-not-exist'; "
                "choose from raytrace, raster, volume, volume_unstructured"
            )
        # Failure rows never block fitting the healthy slice of the corpus.
        suite = ModelSuite.fit_corpus(corpus)
        assert suite.entries and not suite.failures

    @pytest.mark.parametrize(
        "field, value, message, stale",
        [pytest.param(*row, id=row[0]) for row in [
            (
                "simulations",
                "krypke",
                "unknown simulation 'krypke'; choose from lulesh, kripke, cloverleaf",
                {"simulation": "krypke"},
            ),
            (
                "techniques",
                "voluem",
                "unknown technique 'voluem'; choose from raytrace, raster, volume, volume_unstructured",
                {"technique": "voluem"},
            ),
            (
                "architectures",
                "gpu1-k40",
                "unknown architecture 'gpu1-k40'; choose from cpu-i7-4770k, ",
                {"architecture": "gpu1-k40"},
            ),
            (
                "dpp_devices",
                "vectorised",
                "unknown device 'vectorised'; choose from serial, vectorized",
                None,
            ),
            (
                "compositing_algorithms",
                "binary-swp",
                "unknown compositing algorithm 'binary-swp'; choose from direct-send, binary-swap, radix-k",
                {"algorithm": "binary-swp"},
            ),
            (
                "compositing_scenario",
                "orbit",
                "unknown compositing scenario 'orbit'; choose from uniform, amr, camera-orbit",
                {"compositing_scenario": "orbit", "compositing_max_live_ranks": 1},
            ),
            ("samples_per_technique", -1, "samples_per_technique must be at least 0, got -1", None),
            ("task_counts", 0, "task_counts must be at least 1, got 0", None),
            ("compositing_task_counts", 0, "compositing_task_counts must be at least 1, got 0", None),
            ("compositing_max_live_ranks", 0, "compositing_max_live_ranks must be at least 1, got 0", None),
            ("compositing_radices", (3, 3), "radix schedule [3, 3] multiplies out to 9 ranks", None),
        ]],
    )
    def test_unknown_technique_fails_the_plan_not_its_specs(self, field, value, message, stale):
        default = getattr(FAST_CONFIG, field)
        value = (*default, value) if isinstance(default, tuple) else value
        config = dataclasses.replace(FAST_CONFIG, **{field: value})
        with pytest.raises(ValueError) as planned:
            build_plan(config)
        assert str(planned.value).startswith(message)
        with pytest.raises(ValueError) as studied:
            run_plan(build_plan(config))
        assert str(studied.value) == str(planned.value)
        if stale is None:
            return
        # A stale spec still naming the value is one failure row, on the
        # synthetic path as on the compositing path.
        plan = build_plan(FAST_CONFIG)
        kind = "compositing" if field.startswith("compositing") else "synthetic"
        specs = list(plan.specs)
        index = next(i for i, spec in enumerate(specs) if spec.kind == kind)
        specs[index] = dataclasses.replace(specs[index], **stale)
        corpus, report = run_plan(dataclasses.replace(plan, specs=specs), jobs=1)
        assert report.failed == 1
        assert len(corpus.records) + len(corpus.compositing_records) == len(specs) - 1
        (failure,) = corpus.failures
        assert (failure.kind, failure.error_type) == (kind, "ValueError")
        assert failure.message.startswith(message)

    def test_unknown_dpp_device_fails_the_plan_not_its_specs(self):
        # FAST_CONFIG plans no host render: the name is rejected all the same.
        message = "unknown device 'vectorised'; choose from serial, vectorized"
        for architectures in (FAST_CONFIG.architectures, ("cpu-host", "gpu1-k40m")):
            config = dataclasses.replace(
                FAST_CONFIG, architectures=architectures, dpp_devices=("vectorized", "vectorised")
            )
            with pytest.raises(ValueError, match=message):
                build_plan(config)
        # A stale spec still naming it is one ordinary failure row.
        stale = _render_spec(dpp_device="vectorised")
        corpus, report = run_plan(dataclasses.replace(build_plan(FAST_CONFIG), specs=[stale]), jobs=1)
        assert report.failed == 1
        (failure,) = corpus.failures
        assert (failure.error_type, failure.message) == ("ValueError", message)


# ---------------------------------------------------------------------------
# Corpus serialization and the CLI
# ---------------------------------------------------------------------------

class TestCorpusIO:
    def test_round_trip_with_failures(self, tmp_path):
        corpus, _ = run_plan(build_plan(FAST_CONFIG), jobs=1)
        corpus.failures.append(
            FailureRecord(
                kind="render", reason="timeout", spec={"technique": "raytrace"}, message="slow"
            )
        )
        path = corpus_io.save_corpus(corpus, tmp_path / "corpus.json")
        loaded = corpus_io.load_corpus(path)
        assert len(loaded.records) == len(corpus.records)
        assert len(loaded.compositing_records) == len(corpus.compositing_records)
        assert len(loaded.failures) == 1
        assert loaded.failures[0].reason == "timeout"
        for a, b in zip(corpus.records, loaded.records):
            assert a == b

    def test_save_is_atomic(self, tmp_path):
        corpus, _ = run_plan(build_plan(FAST_CONFIG, include_compositing=False), jobs=1)
        path = corpus_io.save_corpus(corpus, tmp_path / "corpus.json")
        good = path.read_bytes()
        assert good == json.dumps(corpus_to_payload(corpus), indent=1).encode()
        # The metadata is the last section: everything before it has been
        # streamed out when the encoder meets the object it cannot serialize.
        with pytest.raises(TypeError):
            corpus_io.save_corpus(corpus, path, metadata={"unserializable": object()})
        assert path.read_bytes() == good
        assert [entry.name for entry in tmp_path.iterdir()] == ["corpus.json"]

    def test_payload_without_failures_section_loads(self):
        corpus = corpus_from_payload({"schema": 1, "records": [], "compositing_records": []})
        assert corpus.failures == []

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[]", "JSON list"),
            ('{"schema": "1", "records": []}', "'schema'"),
            ('{"schema": 1, "records": {}}', "'records'"),
            ('{"schema": 1, "records": [], "compositing_records": [7]}', "'compositing_records'"),
            ('{"schema": 1, "failures": [{"reason": "timeout"}]}', "'failures'"),
            ('{"schema": 1, "records": [', "Expecting"),
        ],
        ids=["list", "string-schema", "object-rows", "number-row", "row-without-kind", "torn"],
    )
    def test_wrong_shape_is_a_value_error_naming_file_and_field(self, tmp_path, text, field):
        path = tmp_path / "corpus.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=field) as caught:
            corpus_io.load_corpus(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_merge(self):
        first, _ = run_plan(build_plan(FAST_CONFIG, include_compositing=False), jobs=1)
        second, _ = run_plan(build_plan(FAST_CONFIG), jobs=1)
        merged = corpus_io.merge_corpora([first, second])
        assert len(merged.records) == len(first.records) + len(second.records)
        assert len(merged.compositing_records) == len(second.compositing_records)


class TestCLI:
    ARGS = ["--preset", "default", "--architectures", "gpu1-k40m", "--samples", "4", "--seed", "3"]

    def test_plan_subcommand(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert study_cli.main(["plan", *self.ARGS, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["specs"]) > 0
        assert "plan:" in capsys.readouterr().out

    def test_run_resume_and_require_cached(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        out = str(tmp_path / "corpus.json")
        args = ["run", *self.ARGS, "--no-compositing", "--cache-dir", cache_dir, "--out", out]
        assert study_cli.main(args) == 0
        # Nothing was cached-read on a cold run, so --require-cached fails...
        assert study_cli.main([*args, "--require-cached"]) == 3
        # ...and passes once --resume reuses the rows the cold run wrote.
        assert study_cli.main([*args, "--resume", "--require-cached"]) == 0
        capsys.readouterr()
        corpus = corpus_io.load_corpus(out)
        assert len(corpus.records) == 3 * 4

    def test_resume_without_cache_dir_is_a_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "corpus.json")
        assert study_cli.main(["run", *self.ARGS, "--resume", "--out", out]) == 2
        assert study_cli.main(["run", *self.ARGS, "--require-cached", "--out", out]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_fit_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "corpus.json")
        assert study_cli.main(["run", *self.ARGS, "--out", out]) == 0
        assert study_cli.main(["fit", out]) == 0
        assert "R^2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [
            "fit", "report", "merge", "predict", "plan-adaptive", "run-adaptive",
            "fit-missing", "report-missing", "merge-missing", "predict-missing",
            "plan-adaptive-missing", "run-adaptive-missing",
            "predict-configs-torn", "predict-configs-missing",
        ],
    )
    def test_an_unreadable_input_file_is_a_usage_error(self, tmp_path, capsys, command):
        bad = tmp_path / "x.json"
        bad.write_text('[{"architecture": ' if command == "predict-configs-torn" else "[]")
        left = ["x.json"]
        models = tmp_path / "models.json"
        if command.startswith("predict-configs"):
            ModelSuite().save(models)  # a readable suite: only the --configs file is at fault
            left.append(models.name)
        missing = command.endswith("-missing")
        if missing:
            bad.unlink()
            left.remove(bad.name)
        argv = {
            "fit": ["fit", str(bad)],
            "report": ["report", str(bad), "--out-dir", str(tmp_path / "report")],
            "merge": ["merge", str(tmp_path / "merged.json"), str(bad)],
            "predict": ["predict", str(bad), "--architecture", "gpu1-k40m", "--technique", "raytrace"],
            "plan-adaptive": ["plan", *self.ARGS, "--adaptive", "--corpus", str(bad)],
            "run-adaptive": [
                "run", *self.ARGS, "--adaptive", "--corpus", str(bad), "--out", str(tmp_path / "o.json")
            ],
            "predict-configs-torn": ["predict", str(models), "--configs", str(bad)],
            "predict-configs": ["predict", str(models), "--configs", str(bad)],
        }[command.removesuffix("-missing")]
        assert study_cli.main(argv) == 2
        err = capsys.readouterr().err
        reason = "No such file" if missing else "Expecting" if command == "predict-configs-torn" else "list"
        assert err.startswith(f"error: {bad}: ") and reason in err
        assert sorted(entry.name for entry in tmp_path.iterdir()) == sorted(left)

    def test_merge_subcommand(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        merged = str(tmp_path / "merged.json")
        assert study_cli.main(["run", *self.ARGS, "--no-compositing", "--out", a]) == 0
        assert study_cli.main(["run", *self.ARGS, "--no-compositing", "--out", b]) == 0
        assert study_cli.main(["merge", merged, a, b]) == 0
        capsys.readouterr()
        assert len(corpus_io.load_corpus(merged).records) == 2 * 3 * 4

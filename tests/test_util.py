"""Tests for repro.util: Morton codes, timers, RNG helpers, packing utilities, atomic writes."""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reporting.suite import ModelSuite
from repro.study import cli as study_cli
from repro.study.corpus_io import load_corpus
from repro.study.trajectory import append_trajectory_rows
from repro.util import (
    Timer,
    atomic_write,
    default_rng,
    derive_seed,
    morton_decode_2d,
    morton_decode_3d,
    morton_encode_2d,
    morton_encode_3d,
    morton_order_points,
    spawn_rngs,
)
from repro.util.packing import chunk_ranges, segment_local_indices


class TestMorton:
    def test_encode_decode_2d_roundtrip_exhaustive_small(self):
        x, y = np.meshgrid(np.arange(32), np.arange(32))
        codes = morton_encode_2d(x.ravel(), y.ravel())
        dx, dy = morton_decode_2d(codes)
        assert np.array_equal(dx, x.ravel())
        assert np.array_equal(dy, y.ravel())

    def test_encode_2d_unique(self):
        x, y = np.meshgrid(np.arange(64), np.arange(64))
        codes = morton_encode_2d(x.ravel(), y.ravel())
        assert len(np.unique(codes)) == 64 * 64

    @given(
        st.lists(st.tuples(st.integers(0, 1023), st.integers(0, 1023), st.integers(0, 1023)), min_size=1, max_size=50)
    )
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_3d_roundtrip_property(self, triples):
        arr = np.array(triples, dtype=np.uint32)
        codes = morton_encode_3d(arr[:, 0], arr[:, 1], arr[:, 2])
        x, y, z = morton_decode_3d(codes)
        assert np.array_equal(x, arr[:, 0])
        assert np.array_equal(y, arr[:, 1])
        assert np.array_equal(z, arr[:, 2])

    def test_morton_order_is_permutation(self, rng):
        points = rng.random((200, 3))
        order = morton_order_points(points)
        assert sorted(order.tolist()) == list(range(200))

    def test_morton_order_spatial_coherence(self, rng):
        """Consecutive points along the curve are closer than random pairs on average."""
        points = rng.random((500, 3))
        order = morton_order_points(points)
        ordered = points[order]
        consecutive = np.linalg.norm(np.diff(ordered, axis=0), axis=1).mean()
        shuffled = points[rng.permutation(500)]
        random_pairs = np.linalg.norm(np.diff(shuffled, axis=0), axis=1).mean()
        assert consecutive < random_pairs

    def test_morton_order_empty_and_degenerate(self):
        assert len(morton_order_points(np.zeros((0, 3)))) == 0
        same = np.ones((5, 3))
        assert sorted(morton_order_points(same).tolist()) == [0, 1, 2, 3, 4]

    def test_morton_order_validates_shape(self):
        with pytest.raises(ValueError):
            morton_order_points(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            morton_order_points(np.zeros((4, 3)), bits=0)


class TestTiming:
    def test_timer_measures_elapsed(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005

    def test_timer_accumulates(self):
        timer = Timer()
        timer.start()
        timer.stop()
        first = timer.elapsed
        timer.start()
        timer.stop()
        assert timer.elapsed >= first

    def test_timer_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)
        assert derive_seed("a", 1) != derive_seed("a", 2)

    def test_default_rng_reproducible(self):
        a = default_rng(42, "x").random(5)
        b = default_rng(42, "x").random(5)
        assert np.array_equal(a, b)

    def test_default_rng_labels_change_stream(self):
        a = default_rng(42, "x").random(5)
        b = default_rng(42, "y").random(5)
        assert not np.array_equal(a, b)

    def test_spawn_rngs_independent(self):
        streams = spawn_rngs(3, 7)
        values = [stream.random(4) for stream in streams]
        assert not np.array_equal(values[0], values[1])
        assert len(streams) == 3

    def test_spawn_rngs_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(-1)


class TestPacking:
    def test_segment_local_indices_basic(self):
        assert segment_local_indices(np.array([3, 0, 2])).tolist() == [0, 1, 2, 0, 1]

    def test_segment_local_indices_empty(self):
        assert len(segment_local_indices(np.array([], dtype=np.int64))) == 0

    @given(st.lists(st.integers(0, 20), min_size=0, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_segment_local_indices_matches_reference(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        expected = np.concatenate([np.arange(c) for c in counts]) if counts.sum() else np.empty(0, np.int64)
        assert np.array_equal(segment_local_indices(counts), expected)

    def test_segment_local_indices_rejects_negative(self):
        with pytest.raises(ValueError):
            segment_local_indices(np.array([1, -1]))

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=40), st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_chunk_ranges_cover_and_bound(self, counts, max_total):
        counts = np.asarray(counts, dtype=np.int64)
        ranges = chunk_ranges(counts, max_total)
        # Coverage: ranges tile [0, n) exactly.
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(counts)
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 == s2
        # Bound: each chunk's sum fits unless it is a single oversized segment.
        for start, end in ranges:
            total = int(counts[start:end].sum())
            assert total <= max_total or end - start == 1

    def test_chunk_ranges_empty(self):
        assert chunk_ranges(np.array([], dtype=np.int64), 10) == []

    def test_chunk_ranges_invalid_max(self):
        with pytest.raises(ValueError):
            chunk_ranges(np.array([1]), 0)


class TestAtomicWrite:
    def test_writes_the_whole_text_and_creates_the_directory(self, tmp_path):
        path = tmp_path / "out" / "table.md"
        with atomic_write(path) as handle:
            handle.write("| a |\n")
        assert path.read_bytes() == b"| a |\n"
        assert [entry.name for entry in path.parent.iterdir()] == ["table.md"]

    def test_failed_write_keeps_the_previous_files(self, tmp_path, monkeypatch):
        models = ModelSuite(seed=1).save(tmp_path / "models.json")
        ledger = tmp_path / "BENCH_learning.json"
        append_trajectory_rows(ledger, [{"round": 0}])
        before = {path: path.read_bytes() for path in (models, ledger)}

        def fail_before_rename(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_before_rename)
        with pytest.raises(OSError, match="disk full"):
            ModelSuite(seed=2).save(models)
        with pytest.raises(OSError, match="disk full"):
            append_trajectory_rows(ledger, [{"round": 1}])
        assert {path: path.read_bytes() for path in (models, ledger)} == before
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["BENCH_learning.json", "models.json"]
        monkeypatch.undo()
        assert json.loads(ModelSuite(seed=2).save(models).read_text())["seed"] == 2

    def test_failed_cli_out_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        matrix = ["--preset", "smoke", "--architectures", "gpu1-k40m", "--techniques", "raytrace",
                  "--samples", "4", "--no-compositing"]
        corpus = tmp_path / "corpus.json"
        assert study_cli.main(["run", *matrix, "--out", str(corpus)]) == 0
        models = ModelSuite.fit_corpus(load_corpus(corpus)).save(tmp_path / "models.json")
        writers = {
            "plan.json": ["plan", *matrix],
            "batch.json": ["plan", *matrix, "--adaptive", "--corpus", str(corpus), "--batch-size", "2"],
            "rows.json": ["predict", str(models), "--architecture", "gpu1-k40m", "--technique", "raytrace"],
        }
        for name in writers:
            (tmp_path / name).write_text(f"previous {name}\n", encoding="utf-8")
        before = sorted(entry.name for entry in tmp_path.iterdir())

        def fail_before_rename(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_before_rename)
        for name, argv in writers.items():
            with pytest.raises(OSError, match="disk full"):
                study_cli.main([*argv, "--out", str(tmp_path / name)])
            assert (tmp_path / name).read_text(encoding="utf-8") == f"previous {name}\n"
        assert sorted(entry.name for entry in tmp_path.iterdir()) == before

    def test_a_block_that_raises_leaves_the_target_and_no_temporary_file(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("old", encoding="utf-8")
        with pytest.raises(RuntimeError, match="interrupted"):
            with atomic_write(path) as handle:
                handle.write("new, but never finished")
                raise RuntimeError("interrupted")
        assert path.read_text(encoding="utf-8") == "old"
        assert [entry.name for entry in tmp_path.iterdir()] == ["corpus.json"]

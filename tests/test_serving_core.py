"""The serving core: canonical configs, LRU cache, handles, parity, term plans."""

from __future__ import annotations

import gc
import tracemalloc
from math import isfinite

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.modeling.study import StudyConfiguration, StudyCorpus
from repro.reporting import ModelSuite, Predictor
from repro.serving import (
    LRUCache,
    ModelHandle,
    ServingCore,
    ServingError,
    canonical_config,
    canonical_configs,
)
from repro.serving.core import _RENDER_COUNTS, RENDER_DEFAULTS, _render_columns
from repro.study import run_study
from repro.techniques import TECHNIQUES


@pytest.fixture(scope="module")
def corpus() -> StudyCorpus:
    config = StudyConfiguration(
        architectures=("cpu-host", "gpu1-k40m"),
        techniques=("raytrace", "volume"),
        simulations=("kripke",),
        task_counts=(1, 4),
        samples_per_technique=8,
        compositing_task_counts=(2, 4),
        compositing_pixel_sizes=(32, 48, 64),
        seed=7,
    )
    return run_study(config)


@pytest.fixture(scope="module")
def models_path(corpus, tmp_path_factory):
    suite = ModelSuite.fit_corpus(corpus)
    return suite.save(tmp_path_factory.mktemp("serving") / "models.json")


@pytest.fixture()
def core(models_path) -> ServingCore:
    return ServingCore.from_path(models_path)


CONFIGS = [
    {"architecture": "gpu1-k40m", "technique": "raytrace", "num_tasks": 4, "cells_per_task": 120},
    {"architecture": "cpu-host", "technique": "volume", "num_tasks": 16, "image_width": 512,
     "image_height": 512},
    {"architecture": "gpu1-k40m", "technique": "volume", "num_tasks": 64},
    {"architecture": "-", "technique": "compositing", "average_active_pixels": 640.0, "pixels": 4096},
    {"architecture": "gpu1-k40m", "technique": "raytrace", "num_tasks": 4, "cells_per_task": 120,
     "include_build": False},
]


class DictLRU:
    """The plain-dict LRU that ``LRUCache`` replaced, one key per call: the oracle."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: dict = {}

    def get(self, key):
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        del self._data[key]
        self._data[key] = value
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        if self.maxsize <= 0:
            return
        self._data.pop(key, None)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.pop(next(iter(self._data)))
            self.evictions += 1

    def stats(self) -> dict:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def offline(predictor: Predictor, config: dict, sigmas: float) -> tuple:
    """``(seconds, lower, upper, residual_std)`` of one config from a one-row ``Predictor`` call."""
    canon = canonical_config(config)
    if canon[0] == "compositing":
        batch = predictor.predict_compositing(canon[1], canon[2], sigmas=sigmas)
    else:
        batch = predictor.predict_configurations(
            canon[1], canon[2], num_tasks=canon[3], cells_per_task=canon[4],
            image_width=canon[5], image_height=canon[6], samples_in_depth=canon[7],
            include_build=canon[8], sigmas=sigmas,
        )
    return (float(batch.seconds[0]), float(batch.lower[0]), float(batch.upper[0]),
            float(batch.residual_std))


class TestCanonicalConfig:
    def test_defaults_fill_and_extras_are_ignored(self):
        sparse = canonical_config({"architecture": "a", "technique": "raytrace", "note": "hi"})
        explicit = canonical_config({"architecture": "a", "technique": "raytrace", **RENDER_DEFAULTS})
        assert sparse == explicit
        assert sparse[0] == "render"

    def test_int_vs_float_spellings_canonicalize_identically(self):
        a = canonical_config({"architecture": "a", "technique": "volume", "num_tasks": 8})
        b = canonical_config({"architecture": "a", "technique": "volume", "num_tasks": 8.0})
        assert a == b

    def test_unknown_technique_is_rejected(self):
        with pytest.raises(ServingError) as excinfo:
            canonical_config({"architecture": "a", "technique": "splatting"})
        assert excinfo.value.code == "invalid-configuration"
        assert "splatting" in str(excinfo.value)

    def test_missing_architecture_is_rejected(self):
        with pytest.raises(ServingError):
            canonical_config({"technique": "raytrace"})

    def test_non_positive_counts_are_rejected(self):
        with pytest.raises(ServingError):
            canonical_config({"architecture": "a", "technique": "volume", "num_tasks": 0})

    @pytest.mark.parametrize(
        "config",
        [
            {"architecture": "a", "technique": "raytrace", "num_tasks": float("inf")},  # JSON 1e999
            {"architecture": "a", "technique": "raytrace", "num_tasks": 10**400},
            {"architecture": "a", "technique": "raytrace", "image_width": float("nan")},
            {"architecture": "a", "technique": "raytrace", "include_build": "false"},
            {"technique": "compositing", "average_active_pixels": float("nan"), "pixels": 4096},
            {"technique": "compositing", "average_active_pixels": float("inf"), "pixels": 4096},
            {"technique": "compositing", "average_active_pixels": -5.0, "pixels": 4096},
            {"technique": "compositing", "average_active_pixels": 512.0, "pixels": -1},
            {"technique": "compositing", "average_active_pixels": 512.0, "pixels": float("inf")},
            # A count is a JSON integer or an integral float; nothing is coerced.
            {"architecture": "a", "technique": "raytrace", "num_tasks": 8.5},
            {"architecture": "a", "technique": "raytrace", "num_tasks": 1.9},
            {"architecture": "a", "technique": "raytrace", "num_tasks": True},
            {"architecture": "a", "technique": "raytrace", "num_tasks": "8"},
            {"architecture": "a", "technique": "raytrace", "num_tasks": " 8 "},
            {"technique": "compositing", "average_active_pixels": 512.0, "pixels": 640.7},
            # Past 2**53 float64 rounds counts and the mapping overflows to inf.
            {"architecture": "a", "technique": "raytrace", "cells_per_task": 10**200},
            {"architecture": "a", "technique": "raytrace", "num_tasks": 2**53},
            {"architecture": "a", "technique": "raytrace", "image_width": 2.0**53},
            # Compositing inputs share the bound: 1e308 active pixels served -3e301 seconds.
            {"technique": "compositing", "average_active_pixels": 1e308, "pixels": 4096},
            {"technique": "compositing", "average_active_pixels": 2.0**53, "pixels": 4096},
            {"technique": "compositing", "average_active_pixels": 512.0, "pixels": 2**53},
            {"technique": "compositing", "average_active_pixels": 512.0, "pixels": 1.7e308},
        ],
    )
    def test_hostile_values_are_rejected(self, config):
        with pytest.raises(ServingError) as excinfo:
            canonical_config(config)
        assert excinfo.value.code == "invalid-configuration"

    @pytest.mark.parametrize("sigmas", [float("nan"), float("inf"), -1])
    def test_hostile_sigmas_are_rejected(self, core, sigmas):
        with pytest.raises(ServingError) as excinfo:
            core.predict_rows([CONFIGS[0]], sigmas=sigmas)
        assert excinfo.value.code == "invalid-configuration"
        assert core.cache.stats()["misses"] == 0

    def test_compositing_requires_its_inputs(self):
        with pytest.raises(ServingError) as excinfo:
            canonical_config({"technique": "compositing"})
        assert "average_active_pixels" in str(excinfo.value)

    def test_non_object_configuration_is_rejected(self):
        with pytest.raises(ServingError):
            canonical_config(["architecture", "a"])


#: The values each column check stands on, at and on either side of its edge.
_EDGE_VALUES = [0, -1, 1, 2**53 - 1, 2**53, 10**200, 8.0, 2.0**53, True, False, "8", "", None]
_EDGES = st.sampled_from(_EDGE_VALUES)

#: Any JSON-ish value a configuration key may carry, sane or not.
_VALUES = st.one_of(
    _EDGES,
    st.integers(-3, 5000),
    st.integers(1, 64).map(float),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)
_KEYS = ["architecture", "technique", "include_build", *_RENDER_COUNTS, "average_active_pixels", "pixels"]

#: A render configuration the column path must take whole.
_RENDER_ROW = st.fixed_dictionaries(
    {
        "architecture": st.sampled_from(["gpu1-k40m", "cpu-host"]),
        "technique": st.sampled_from(sorted(TECHNIQUES)),
    },
    optional={
        **{key: st.integers(1, 2**53 - 1) for key in _RENDER_COUNTS},
        "include_build": st.booleans(),
        "note": st.text(max_size=3),
    },
)

#: A render row that is sane but for one key, which holds an edge value.
_NEAR_ROW = st.builds(lambda row, key, value: {**row, key: value}, _RENDER_ROW, st.sampled_from(_KEYS), _EDGES)

#: Anything else: non-dicts, compositing queries, render rows with any value under any key.
_ODD_ROW = st.one_of(
    st.integers(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.fixed_dictionaries(
        {"technique": st.just("compositing")},
        optional={"average_active_pixels": _VALUES, "pixels": _VALUES, "architecture": _VALUES},
    ),
    st.fixed_dictionaries(
        {"technique": st.one_of(st.sampled_from([*TECHNIQUES, "compositing", "splatting"]), _VALUES)},
        optional={key: _VALUES for key in _KEYS if key != "technique"},
    ),
)


def _outcome(call) -> tuple:
    """What a canonicalizer returns (by ``repr``, so ``8`` and ``8.0`` differ) or raises."""
    try:
        return "ok", repr(call())
    except ServingError as error:
        return "error", error.code, str(error), error.detail


class TestCanonicalConfigs:
    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(_RENDER_ROW, max_size=8),
        odd=st.lists(st.tuples(st.integers(0, 8), st.one_of(_NEAR_ROW, _ODD_ROW)), max_size=2),
    )
    def test_the_batch_equals_canonical_config_row_by_row(self, rows, odd):
        configs = list(rows)
        for position, row in odd:
            configs.insert(position, row)
        if configs and not odd:
            assert _render_columns(configs) is not None  # a plain render batch is read by column
        expected = _outcome(lambda: [canonical_config(config) for config in configs])
        assert _outcome(lambda: canonical_configs(configs)) == expected

    def test_every_column_edge_reads_as_it_does_row_by_row(self):
        sane = [{"architecture": "gpu1-k40m", "technique": "raytrace", "num_tasks": 8}] * 3
        for key in _KEYS:
            for value in _EDGE_VALUES:
                configs = [*sane, {**sane[0], key: value}]
                expected = _outcome(lambda: [canonical_config(config) for config in configs])
                assert _outcome(lambda: canonical_configs(configs)) == expected, (key, value)


class TestLRUCache:
    def test_counts_hits_and_misses(self):
        cache = LRUCache(4)
        assert cache.get_many(["k"]) == [None]
        cache.put_many(["k"], [(1.0,)])
        assert cache.get_many(["k"]) == [(1.0,)]
        assert cache.stats() == {"size": 1, "maxsize": 4, "hits": 1, "misses": 1, "evictions": 0}

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put_many(["a", "b"], [1, 2])
        assert cache.get_many(["a"]) == [1]  # refresh "a" to MRU
        cache.put_many(["c"], [3])  # evicts "b", the LRU entry
        assert cache.get_many(["b", "a", "c"]) == [None, 1, 3]
        assert cache.evictions == 1

    def test_zero_maxsize_disables_caching(self):
        cache = LRUCache(0)
        cache.put_many(["a"], [1])
        assert cache.get_many(["a"]) == [None]
        assert len(cache) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        maxsize=st.integers(0, 6),
        calls=st.lists(st.tuples(st.booleans(), st.lists(st.integers(0, 9), max_size=8)), max_size=30),
    )
    def test_batches_act_as_the_dict_lru_one_key_at_a_time(self, maxsize, calls):
        cache, oracle = LRUCache(maxsize), DictLRU(maxsize)
        for call, (store, keys) in enumerate(calls):
            if store:
                values = [(call, position) for position in range(len(keys))]
                cache.put_many(keys, values)
                for key, value in zip(keys, values):
                    oracle.put(key, value)
            else:
                assert cache.get_many(keys) == [oracle.get(key) for key in keys]
            assert cache.stats() == oracle.stats()
            assert list(cache._data.items()) == list(oracle._data.items())  # MRU order and contents


class TestServingCoreParity:
    def test_rows_are_bit_identical_to_the_predictor(self, core, models_path):
        rows, meta = core.predict_rows(CONFIGS, sigmas=2.0)
        predictor = Predictor.load(models_path)
        for config, row in zip(CONFIGS, rows):
            seconds, lower, upper, residual_std = offline(predictor, config, 2.0)
            assert row["seconds"] == seconds
            assert row["lower"] == lower
            assert row["upper"] == upper
            assert row["residual_std"] == residual_std
        assert meta["models_digest"] == core.handle.digest

    @pytest.mark.parametrize("cache_size", [0, 1, 4096])
    def test_batched_cache_access_matches_per_row_calls(self, models_path, cache_size):
        core = ServingCore.from_path(models_path, cache_size=cache_size)
        predictor = Predictor.load(models_path)
        configs = CONFIGS + [CONFIGS[2], CONFIGS[0], CONFIGS[2]]  # repeats within one batch
        expected = [offline(predictor, config, 2.0) for config in configs]
        oracle = DictLRU(cache_size)
        for _ in range(2):  # the second call finds what the first stored
            rows, _ = core.predict_rows(configs, sigmas=2.0)
            got = [(row["seconds"], row["lower"], row["upper"], row["residual_std"]) for row in rows]
            assert got == expected
            # The per-row cache calls the batched ones replaced: every get, then
            # one put per miss, group by group in order of first miss.
            keys = [(core.handle.digest, core.handle.schema, canonical_config(c), 2.0) for c in configs]
            groups: dict[tuple, list[int]] = {}
            for index, key in enumerate(keys):
                if oracle.get(key) is None:
                    query = key[2]
                    group = ("compositing",) if query[0] == "compositing" else query[1:3] + query[8:]
                    groups.setdefault(group, []).append(index)
            for indices in groups.values():
                for index in indices:
                    oracle.put(keys[index], expected[index])
            assert core.cache.stats() == oracle.stats()
            assert list(core.cache._data.items()) == list(oracle._data.items())

    def test_counts_from_2_53_are_refused_and_counts_below_are_served_finite(self, core):
        # 10**200 cells per task used to map to inf: HTTP 200 with a non-JSON body.
        overflow = {**CONFIGS[0], "cells_per_task": 10**200}
        with pytest.raises(ServingError) as excinfo:
            core.predict_rows([CONFIGS[1], overflow])
        assert excinfo.value.code == "invalid-configuration"
        assert "cells_per_task" in str(excinfo.value)
        largest = dict.fromkeys(_RENDER_COUNTS, 2**53 - 1)
        for architecture, technique in sorted(core.handle.available):
            for include_build in (True, False):
                config = {"architecture": architecture, "technique": technique, **largest}
                rows, _ = core.predict_rows([{**config, "include_build": include_build}])
                values = [rows[0][key] for key in ("seconds", "lower", "upper", "residual_std")]
                assert all(isfinite(value) for value in values), (config, values)
        compositing = {"technique": "compositing", "average_active_pixels": 2**53 - 1, "pixels": 2**53 - 1}
        rows, _ = core.predict_rows([compositing])
        values = [rows[0][key] for key in ("seconds", "lower", "upper", "residual_std")]
        assert all(isfinite(value) for value in values), values

    def test_results_ignore_batch_composition_and_order(self, core):
        together = core.predict_canonical([canonical_config(c) for c in CONFIGS])
        alone = [core.predict_canonical([canonical_config(c)])[0] for c in CONFIGS]
        assert together == alone
        reversed_batch = core.predict_canonical([canonical_config(c) for c in reversed(CONFIGS)])
        assert list(reversed(reversed_batch)) == together

    def test_rows_echo_the_input_configuration(self, core):
        rows, _ = core.predict_rows([{**CONFIGS[0], "annotation": "keep-me"}])
        assert rows[0]["annotation"] == "keep-me"
        assert rows[0]["num_tasks"] == CONFIGS[0]["num_tasks"]

    def test_unknown_model_raises_a_structured_error(self, core):
        with pytest.raises(ServingError) as excinfo:
            core.predict_rows([{"architecture": "nope", "technique": "raytrace"}])
        error = excinfo.value
        assert error.code == "unknown-model"
        payload = error.payload()["error"]
        assert payload["architecture"] == "nope"
        assert ["gpu1-k40m", "raytrace"] in payload["available"]
        assert payload["models_digest"] == core.handle.digest


class TestServingCoreCache:
    def test_repeat_queries_hit_the_cache_with_identical_results(self, core):
        first = core.predict_canonical([canonical_config(c) for c in CONFIGS])
        second = core.predict_canonical([canonical_config(c) for c in CONFIGS])
        assert first == second
        assert core.cache.hits == len(CONFIGS)

    def test_sigmas_is_part_of_the_cache_key(self, core):
        canon = [canonical_config(CONFIGS[0])]
        core.predict_canonical(canon, sigmas=2.0)
        core.predict_canonical(canon, sigmas=3.0)
        assert core.cache.hits == 0 and core.cache.misses == 2

    def test_swapping_the_handle_invalidates_by_construction(self, core, models_path):
        canon = [canonical_config(CONFIGS[0])]
        before = core.predict_canonical(canon)
        swapped = ModelHandle.load(models_path, generation=1)
        object.__setattr__(swapped, "digest", "different-digest")
        core.swap(swapped)
        after = core.predict_canonical(canon)
        assert before == after  # same underlying suite, so same numbers ...
        assert core.cache.hits == 0 and core.cache.misses == 2  # ... but no stale hit

    def test_eviction_churn_never_serves_wrong_results(self, models_path):
        core = ServingCore.from_path(models_path, cache_size=8)
        expected = {}
        for tasks in range(1, 33):
            config = {"architecture": "gpu1-k40m", "technique": "volume", "num_tasks": tasks}
            expected[tasks] = core.predict_canonical([canonical_config(config)])[0]
        for tasks in (32, 1, 17, 8, 25, 2):  # mix of cached and long-evicted
            config = {"architecture": "gpu1-k40m", "technique": "volume", "num_tasks": tasks}
            assert core.predict_canonical([canonical_config(config)])[0] == expected[tasks]
        assert len(core.cache) <= 8
        assert core.cache.evictions >= 24


class TestTermPlans:
    def test_plans_are_cached_per_shape(self, models_path):
        predictor = Predictor.load(models_path)
        entry = predictor.suite.get("gpu1-k40m", "raytrace")
        plan = predictor.term_plan(entry, include_build=True)
        assert predictor.term_plan(entry, include_build=True) is plan
        assert predictor.term_plan(entry, include_build=False) is not plan

    def test_raytrace_plan_combines_variances_in_quadrature(self, models_path):
        predictor = Predictor.load(models_path)
        entry = predictor.suite.get("gpu1-k40m", "raytrace")
        with_build = predictor.term_plan(entry, include_build=True)
        frame_only = predictor.term_plan(entry, include_build=False)
        model = entry.model
        assert frame_only == float(model.fits["frame"].residual_std)
        assert with_build == pytest.approx(
            float(np.sqrt(model.fits["frame"].residual_std**2 + model.fits["build"].residual_std**2))
        )

    def test_repeated_predictions_do_not_grow_per_call_state(self, models_path):
        predictor = Predictor.load(models_path)

        def query() -> None:
            predictor.predict_configurations(
                "gpu1-k40m", "raytrace", num_tasks=8, cells_per_task=100,
                image_width=1024, image_height=1024,
            )
            predictor.predict_compositing(512.0, 4096)

        for _ in range(5):  # warm every plan and lazy import
            query()
        plans = dict(predictor._plans)
        gc.collect()
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        for _ in range(50):
            query()
        gc.collect()
        grown, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert predictor._plans == plans  # no new structure per call
        # 50 calls may leave transient float artifacts, but nothing that scales
        # per call: well under one retained result batch per query.
        assert grown - baseline < 64_000

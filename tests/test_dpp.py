"""Tests for the data-parallel primitives framework."""

from __future__ import annotations

import asyncio
import contextvars
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpp import (
    exclusive_scan,
    gather,
    get_device,
    get_instrumentation,
    inclusive_scan,
    list_devices,
    map_field,
    reduce_field,
    reverse_index,
    scatter,
    segmented_argmin,
    stream_compact,
    use_device,
)
from repro.dpp.device import DeviceRegistry, SerialDevice, VectorizedDevice
from repro.dpp.instrument import reset_instrumentation


@pytest.fixture(autouse=True)
def _clean_instrumentation():
    reset_instrumentation()
    yield
    reset_instrumentation()


class TestDevices:
    def test_both_devices_registered(self):
        assert list_devices() == ["serial", "vectorized"]

    def test_use_device_context(self):
        with use_device("serial") as device:
            assert device.name == "serial"
            assert get_device().name == "serial"
        assert get_device().name == "vectorized"

    def test_unknown_device_raises(self):
        message = "unknown device 'does-not-exist'; choose from serial, vectorized"
        with pytest.raises(ValueError, match=message):
            get_device("does-not-exist")

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_serial_matches_vectorized_scan_reduce(self, values):
        array = np.asarray(values, dtype=np.int64)
        vec, ser = get_device("vectorized"), get_device("serial")
        assert np.array_equal(vec.scan(array, True), ser.scan(array, True))
        assert np.array_equal(vec.scan(array, False), ser.scan(array, False))
        for op in ("add", "min", "max"):
            assert vec.reduce(array, op) == ser.reduce(array, op)

    def test_serial_matches_vectorized_gather_scatter(self, rng):
        values = rng.random((20, 3))
        indices = rng.integers(0, 20, size=15)
        vec, ser = get_device("vectorized"), get_device("serial")
        assert np.allclose(vec.gather(values, indices), ser.gather(values, indices))
        out_a, out_b = np.zeros((25, 3)), np.zeros((25, 3))
        unique = rng.permutation(25)[:20]
        vec.scatter(values, unique, out_a)
        ser.scatter(values, unique, out_b)
        assert np.allclose(out_a, out_b)


class TestDeviceRegistry:
    """The registry seam ``register_device`` feeds, on a private registry."""

    @staticmethod
    def _registry(*devices):
        registry = DeviceRegistry()
        for device in devices:
            registry.register(device)
        return registry

    def test_first_registration_is_the_default(self):
        registry = self._registry(VectorizedDevice(), SerialDevice())
        assert registry.names() == ["serial", "vectorized"]  # sorted, not in order of registration
        assert registry.active == "vectorized"
        assert registry.get().name == "vectorized"

    def test_empty_registry_has_no_device(self):
        registry = DeviceRegistry()
        assert registry.names() == [] and registry.active is None
        with pytest.raises(RuntimeError, match="no device registered"):
            registry.get()

    def test_unknown_name_lists_this_registrys_devices(self):
        registry = self._registry(SerialDevice())
        with pytest.raises(ValueError, match=r"^unknown device 'vectorized'; choose from serial$"):
            registry.get("vectorized")

    def test_activating_an_unknown_name_changes_nothing(self):
        registry = self._registry(VectorizedDevice(), SerialDevice())
        with pytest.raises(ValueError, match="unknown device 'nope'"):
            with registry.activate("nope"):
                pytest.fail("an unknown device must not be activated")
        assert registry.active == "vectorized"

    def test_activation_is_restored_when_the_block_raises(self):
        registry = self._registry(VectorizedDevice(), SerialDevice())
        with pytest.raises(ZeroDivisionError):
            with registry.activate("serial"):
                assert registry.get().name == "serial"
                1 / 0
        assert registry.active == "vectorized"

    def test_private_registry_does_not_touch_the_global_one(self):
        registry = self._registry(VectorizedDevice(), SerialDevice())
        with registry.activate("serial"):
            assert get_device().name == "vectorized"
        with use_device("serial"):
            assert registry.active == "vectorized" and registry.get().name == "vectorized"


class TestContextLocalActivation:
    """Regression tests for device activation being context-local.

    The registry used to keep the active device in a process-global slot, so
    two interleaved ``use_device`` blocks (the serving tier's asyncio tasks,
    threaded sweep workers) would clobber and mis-restore each other.
    """

    def test_copied_context_does_not_leak_activation(self):
        # Entering use_device inside a copied context must not change the
        # device observed by the outer (un-copied) context.
        inner_holds = {}

        def _inside():
            manager = use_device("serial")
            manager.__enter__()
            inner_holds["name"] = get_device().name

        contextvars.copy_context().run(_inside)
        assert inner_holds["name"] == "serial"
        assert get_device().name == "vectorized"

    def test_asyncio_tasks_interleave_without_clobbering(self):
        observed = {"a": [], "b": []}

        async def worker(key, name, barrier):
            with use_device(name):
                await barrier.wait()  # both tasks now hold their activation
                observed[key].append(get_device().name)
                await asyncio.sleep(0)  # force another interleave point
                observed[key].append(get_device().name)
            observed[key].append(get_device().name)

        async def main():
            barrier = asyncio.Barrier(2)
            await asyncio.gather(
                worker("a", "serial", barrier), worker("b", "vectorized", barrier)
            )

        asyncio.run(main())
        assert observed["a"] == ["serial", "serial", "vectorized"]
        assert observed["b"] == ["vectorized", "vectorized", "vectorized"]

    def test_threads_have_independent_activation(self):
        start = threading.Barrier(2)
        results = {}

        def worker(name):
            with use_device(name):
                start.wait()  # both threads activated concurrently
                results[name] = get_device().name

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("serial", "vectorized")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {"serial": "serial", "vectorized": "vectorized"}

    def test_nested_activation_restores_in_order(self):
        with use_device("serial"):
            with use_device("vectorized"):
                assert get_device().name == "vectorized"
            assert get_device().name == "serial"
        assert get_device().name == "vectorized"


class TestContextLocalScope:
    """Regression tests for the instrumentation scope being context-local.

    The active scope used to be a process-global attribute of ``OpCounters``,
    so interleaved ``scope`` blocks filed each other's primitives under the
    wrong name and restored the wrong previous scope.
    """

    @staticmethod
    def _two_gathers():
        gather(np.arange(8), np.arange(4))
        gather(np.arange(8), np.arange(4))

    @staticmethod
    def _invocations():
        snapshot = get_instrumentation().snapshot()
        return {scope: int(row["invocations"]) for scope, row in snapshot.items()}

    def test_asyncio_tasks_record_under_their_own_scope(self):
        async def worker(name, barrier):
            with get_instrumentation().scope(name):
                await barrier.wait()  # both tasks now hold their scope
                gather(np.arange(8), np.arange(4))
                await asyncio.sleep(0)  # force another interleave point
                gather(np.arange(8), np.arange(4))

        async def main():
            barrier = asyncio.Barrier(2)
            await asyncio.gather(worker("a", barrier), worker("b", barrier))

        asyncio.run(main())
        assert self._invocations() == {"a": 2, "b": 2}

    def test_threads_record_under_their_own_scope(self):
        barrier = threading.Barrier(2)

        def worker(name):
            with get_instrumentation().scope(name):
                barrier.wait(timeout=10)  # both threads hold their scope concurrently
                self._two_gathers()
                barrier.wait(timeout=10)  # ... and keep it until both have recorded

        threads = [threading.Thread(target=worker, args=(name,)) for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert self._invocations() == {"a": 2, "b": 2}

    def test_copied_context_does_not_leak_scope(self):
        context = contextvars.copy_context()
        manager = get_instrumentation().scope("inner")
        context.run(manager.__enter__)
        self._two_gathers()  # the un-copied context never entered the scope
        context.run(self._two_gathers)
        context.run(manager.__exit__, None, None, None)
        assert self._invocations() == {"global": 2, "inner": 2}


class _SpyDevice(VectorizedDevice):
    """Vectorized device that counts reverse_index dispatches."""

    name = "spy"

    def __init__(self) -> None:
        self.reverse_index_calls = 0

    def reverse_index(self, scan_result, flags):
        self.reverse_index_calls += 1
        return super().reverse_index(scan_result, flags)


class TestReverseIndexDispatch:
    """Regression tests: reverse_index used to bypass the device seam.

    The old implementation ignored ``scan_result``, recomputed the answer
    with numpy regardless of the active device, and never recorded into the
    instrumentation counters.
    """

    def test_dispatches_to_active_device(self):
        from repro.dpp import register_device
        from repro.dpp.device import _REGISTRY

        spy = _SpyDevice()
        register_device(spy)
        try:
            flags = np.array([True, False, True])
            with use_device("spy"):
                reverse_index(exclusive_scan(flags.astype(np.int64)), flags)
                stream_compact(flags, np.arange(3.0))
            assert spy.reverse_index_calls == 2
        finally:
            _REGISTRY._devices.pop("spy", None)  # keep list_devices() clean for later tests

    def test_uses_the_scan_result_argument(self):
        # A shifted scan must shift the output slots: proof the primitive
        # consumes its input instead of recomputing flatnonzero(flags).
        flags = np.array([True, True, False])
        serial = get_device("serial")
        shifted = serial.reverse_index(np.array([1, 0, 0]), flags)
        assert shifted.tolist() == [1, 0]

    def test_recorded_in_instrumentation(self):
        instrumentation = get_instrumentation()
        flags = np.array([True, False, True, True])
        scanned = exclusive_scan(flags.astype(np.int64))
        with instrumentation.scope("reverse-index-test"):
            reverse_index(scanned, flags)
        assert instrumentation.invocations("reverse-index-test") == 1
        assert instrumentation.elements("reverse-index-test") == len(flags)
        assert instrumentation.bytes_moved("reverse-index-test") > 0


class TestPrimitives:
    def test_map_field_single_output(self):
        result = map_field(lambda a: a * 2, np.arange(5))
        assert np.array_equal(result, np.arange(5) * 2)

    def test_map_field_multiple_inputs(self):
        result = map_field(lambda a, b: a + b, np.arange(4), np.ones(4))
        assert np.array_equal(result, np.arange(4) + 1)

    def test_map_field_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            map_field(lambda a, b: a, np.arange(3), np.arange(4))

    def test_map_field_requires_input(self):
        with pytest.raises(ValueError):
            map_field(lambda: None)

    def test_gather_basic_and_bounds(self):
        values = np.arange(10) * 10
        assert np.array_equal(gather(values, np.array([3, 1, 3])), [30, 10, 30])
        with pytest.raises(IndexError):
            gather(values, np.array([10]))
        with pytest.raises(ValueError):
            gather(values, np.array([[0, 1]]))

    def test_scatter_basic_and_bounds(self):
        out = np.zeros(5)
        scatter(np.array([1.0, 2.0]), np.array([4, 0]), out)
        assert np.array_equal(out, [2.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(IndexError):
            scatter(np.array([1.0]), np.array([9]), out)
        with pytest.raises(ValueError):
            scatter(np.array([1.0, 2.0]), np.array([0]), out)

    def test_reduce_operators(self):
        values = np.array([3.0, -1.0, 2.0])
        assert reduce_field(values, "add") == pytest.approx(4.0)
        assert reduce_field(values, "min") == pytest.approx(-1.0)
        assert reduce_field(values, "max") == pytest.approx(3.0)

    def test_reduce_empty(self):
        assert reduce_field(np.array([], dtype=np.float64), "add") == 0
        with pytest.raises(ValueError):
            reduce_field(np.array([]), "min")

    def test_reduce_unknown_operator(self):
        with pytest.raises(ValueError):
            reduce_field(np.arange(3), "mul")

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_scan_exclusive_inclusive_relation(self, values):
        array = np.asarray(values, dtype=np.int64)
        inclusive = inclusive_scan(array)
        exclusive = exclusive_scan(array)
        assert np.array_equal(inclusive, exclusive + array)
        assert exclusive[0] == 0
        assert inclusive[-1] == array.sum()

    def test_reverse_index(self):
        flags = np.array([True, False, True, True, False])
        scanned = exclusive_scan(flags.astype(np.int64))
        assert np.array_equal(reverse_index(scanned, flags), [0, 2, 3])

    def test_reverse_index_length_mismatch(self):
        with pytest.raises(ValueError):
            reverse_index(np.zeros(3), np.zeros(4, dtype=bool))

    @given(st.lists(st.booleans(), min_size=0, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_stream_compact_preserves_order_and_multiset(self, flags):
        flags = np.asarray(flags, dtype=bool)
        payload = np.arange(len(flags))
        count, (survivors,) = stream_compact(flags, payload)
        assert count == int(flags.sum())
        assert np.array_equal(survivors, payload[flags])

    def test_stream_compact_multiple_arrays(self, rng):
        flags = rng.random(30) < 0.5
        a = rng.random(30)
        b = rng.random((30, 3))
        count, (ca, cb) = stream_compact(flags, a, b)
        assert len(ca) == len(cb) == count
        assert np.allclose(ca, a[flags])
        assert np.allclose(cb, b[flags])

    def test_segmented_argmin_basic(self):
        values = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        starts = np.array([0, 3])
        out = segmented_argmin(values, starts, np.arange(5))
        assert out.tolist() == [1, 4]

    def test_segmented_argmin_tiebreak(self):
        # Equal values resolve to the smallest tiebreak id, then position.
        values = np.array([2.0, 2.0, 2.0, 1.0, 1.0])
        tiebreak = np.array([7, 3, 5, 9, 9])
        out = segmented_argmin(values, np.array([0, 3]), tiebreak)
        assert out.tolist() == [1, 3]

    def test_segmented_argmin_all_inf_segment(self):
        values = np.array([np.inf, np.inf, 1.0])
        out = segmented_argmin(values, np.array([0, 2]), np.array([4, 2, 0]))
        assert out.tolist() == [1, 2]

    def test_segmented_argmin_devices_agree(self, rng):
        values = rng.random(64)
        values[rng.integers(0, 64, 10)] = values[0]  # inject ties
        tiebreak = rng.integers(0, 20, 64)
        bounds = np.unique(rng.integers(1, 64, 6))
        starts = np.concatenate([[0], bounds])
        vec = segmented_argmin(values, starts, tiebreak, device="vectorized")
        ser = segmented_argmin(values, starts, tiebreak, device="serial")
        assert np.array_equal(vec, ser)

    def test_segmented_argmin_validation(self):
        values = np.arange(4.0)
        with pytest.raises(ValueError):
            segmented_argmin(values, np.array([1, 2]), np.arange(4))  # not 0-based
        with pytest.raises(ValueError):
            segmented_argmin(values, np.array([0, 2, 2]), np.arange(4))  # empty segment
        with pytest.raises(ValueError):
            segmented_argmin(values, np.array([0, 4]), np.arange(4))  # past the end
        with pytest.raises(ValueError):
            segmented_argmin(values, np.array([0]), np.arange(3))  # length mismatch
        with pytest.raises(ValueError):
            # NaN has no consistent minimum across devices; masked "no
            # candidate" values must use +inf instead.
            segmented_argmin(np.array([np.nan, 2.0, 1.0]), np.array([0]), np.arange(3))
        assert len(segmented_argmin(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))) == 0

    def test_instrumentation_records_calls(self):
        instrumentation = get_instrumentation()
        with instrumentation.scope("unit-test"):
            map_field(lambda a: a + 1, np.arange(100))
            gather(np.arange(100), np.arange(50))
        assert instrumentation.invocations("unit-test") == 2
        assert instrumentation.elements("unit-test") == 150
        assert instrumentation.bytes_moved("unit-test") > 0
        assert instrumentation.seconds("unit-test") >= 0.0
        assert "unit-test" in instrumentation.scopes()

    def test_snapshot_rows_and_exact_scope_queries(self):
        instrumentation = get_instrumentation()
        with instrumentation.scope("family.phase"):
            gather(np.arange(10), np.arange(6))
        snapshot = instrumentation.snapshot()
        assert set(snapshot) == {"family.phase"}
        row = snapshot["family.phase"]
        assert set(row) == {"invocations", "elements", "bytes_moved", "seconds"}
        assert all(isinstance(value, float) for value in row.values())
        assert row["seconds"] == instrumentation.seconds("family.phase") > 0.0
        # Every query is exact per scope: a dotted child is not its parent's.
        assert instrumentation.seconds("family") == 0.0
        assert instrumentation.elements("family") == 0

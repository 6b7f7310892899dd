"""Device-conformance suite: one contract test per primitive, every device.

Parametrized over ``list_devices()`` at collection time, so both devices
are held to the same contract; the ``device_name`` fixture activates each one
with ``use_device`` around its test.  Expected values are computed with plain
numpy, never with another device, so a shared bug cannot hide.

Tolerance policy (DESIGN.md "The device back-end contract"): integer, boolean
and index-valued results must be bit-identical on every device; floating
*accumulations* (``add`` reductions and scans) may reassociate and are held to
1e-12 relative instead.  Devices named in
``BIT_IDENTICAL_DEVICES`` are held to bit-identity for those too; ``serial``
is not in the set because its left-to-right loop order legitimately differs
from numpy's pairwise summation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
import pytest

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
from repro.dpp.instrument import reset_instrumentation

DEVICES = list_devices()

#: Devices whose floating accumulations must match numpy bit for bit.
BIT_IDENTICAL_DEVICES = {"vectorized"}

#: Relative tolerance granted to every other device on float accumulations.
FLOAT_ACCUMULATION_RTOL = 1e-12


@pytest.fixture(params=DEVICES)
def device_name(request) -> Iterator[str]:
    """The device under test, active for the whole test."""
    with use_device(request.param):
        yield request.param


@pytest.fixture(autouse=True)
def _clean_instrumentation():
    reset_instrumentation()
    yield
    reset_instrumentation()


def assert_matches(device_name: str, result, expected, accumulation: bool = False) -> None:
    """Exact equality, except float accumulations outside ``BIT_IDENTICAL_DEVICES``."""
    result = np.asarray(result)
    expected = np.asarray(expected)
    assert result.shape == expected.shape
    exact = (
        not accumulation
        or device_name in BIT_IDENTICAL_DEVICES
        or expected.dtype.kind in "iub"
    )
    if exact:
        assert np.array_equal(result, expected), f"{device_name}: {result} != {expected}"
    else:
        np.testing.assert_allclose(result, expected, rtol=FLOAT_ACCUMULATION_RTOL, atol=0.0)


class TestDeviceContract:
    def test_device_constructible_and_named(self, device_name):
        device = get_device(device_name)
        assert device.name == device_name

    def test_map_runs_functor(self, device_name):
        device = get_device(device_name)
        out = device.map(lambda a, b: a * 2 + b, np.arange(6), np.ones(6))
        assert_matches(device_name, out, np.arange(6) * 2 + 1)

    def test_gather_matches_fancy_indexing(self, device_name, rng):
        values = rng.random((40, 3))
        indices = rng.integers(0, 40, size=25)
        out = gather(values, indices)
        assert_matches(device_name, out, values[indices])

    def test_gather_scalar_payload(self, device_name):
        values = np.arange(10, dtype=np.int64) * 7
        out = gather(values, np.array([9, 0, 4]))
        assert_matches(device_name, out, np.array([63, 0, 28]))

    def test_scatter_unique_indices(self, device_name, rng):
        values = rng.random((12, 4))
        indices = rng.permutation(20)[:12]
        output = np.zeros((20, 4))
        expected = np.zeros((20, 4))
        expected[indices] = values
        returned = scatter(values, indices, output)
        assert returned is output, "scatter must mutate the caller's buffer in place"
        assert_matches(device_name, output, expected)

    def test_scatter_duplicate_indices_last_write_wins(self, device_name):
        values = np.array([10.0, 20.0, 30.0, 40.0])
        indices = np.array([1, 3, 1, 3])
        output = np.full(5, -1.0)
        scatter(values, indices, output)
        assert_matches(device_name, output, np.array([-1.0, 30.0, -1.0, 40.0, -1.0]))

    def test_scatter_empty(self, device_name):
        output = np.full(3, 7.0)
        scatter(np.empty(0), np.empty(0, dtype=np.int64), output)
        assert_matches(device_name, output, np.full(3, 7.0))

    @pytest.mark.parametrize("operator", ["add", "min", "max"])
    def test_reduce_float_and_int(self, device_name, operator, rng):
        for values in (rng.random(33), rng.integers(-50, 50, size=33)):
            expected = {"add": values.sum(axis=0), "min": values.min(axis=0), "max": values.max(axis=0)}
            out = reduce_field(values, operator)
            assert_matches(device_name, out, expected[operator], accumulation=operator == "add")

    def test_reduce_rows(self, device_name, rng):
        values = rng.integers(0, 100, size=(17, 3))
        out = reduce_field(values, "add")
        assert_matches(device_name, out, values.sum(axis=0))

    def test_reduce_empty_contract(self, device_name):
        device = get_device(device_name)
        # Direct Device.reduce callers get the same validated contract as
        # reduce_field callers: zero identity for add, ValueError otherwise.
        assert device.reduce(np.empty(0, dtype=np.float64), "add") == 0.0
        empty_rows = device.reduce(np.empty((0, 3), dtype=np.int64), "add")
        assert_matches(device_name, empty_rows, np.zeros(3, dtype=np.int64))
        for operator in ("min", "max"):
            with pytest.raises(ValueError, match="empty"):
                device.reduce(np.empty(0), operator)
        with pytest.raises(ValueError, match="unknown reduction"):
            device.reduce(np.arange(3), "mul")

    @pytest.mark.parametrize("inclusive", [True, False])
    def test_scan_int_is_exact(self, device_name, inclusive, rng):
        values = rng.integers(-5, 9, size=50)
        out = (inclusive_scan if inclusive else exclusive_scan)(values)
        expected = np.cumsum(values)
        if not inclusive:
            expected = np.concatenate([[0], expected[:-1]])
        assert_matches(device_name, out, expected)

    def test_scan_float_accumulation(self, device_name, rng):
        values = rng.random(64)
        out = inclusive_scan(values)
        assert_matches(device_name, out, np.cumsum(values), accumulation=True)

    def test_scan_empty(self, device_name):
        for inclusive in (True, False):
            out = get_device(device_name).scan(np.empty(0, dtype=np.int64), inclusive)
            assert len(out) == 0

    def test_reverse_index_uses_scan_offsets(self, device_name):
        flags = np.array([True, False, True, True, False, True])
        scanned = np.concatenate([[0], np.cumsum(flags)[:-1]])
        out = reverse_index(scanned, flags)
        assert_matches(device_name, out, np.flatnonzero(flags))

    def test_reverse_index_edge_cases(self, device_name):
        none = reverse_index(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=bool))
        assert len(none) == 0
        every = reverse_index(np.arange(4), np.ones(4, dtype=bool))
        assert_matches(device_name, every, np.arange(4))
        empty = reverse_index(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        assert len(empty) == 0

    def test_segmented_argmin_tiebreak_determinism(self, device_name):
        # Value ties resolve by smallest tiebreak, then by position -- the
        # determinism the ray tracer's winner selection depends on.
        values = np.array([2.0, 2.0, 2.0, 1.0, 1.0, 5.0])
        tiebreak = np.array([7, 3, 3, 9, 9, 0])
        out = segmented_argmin(values, np.array([0, 3, 5]), tiebreak)
        assert_matches(device_name, out, np.array([1, 3, 5]))

    def test_segmented_argmin_all_inf_segment(self, device_name):
        values = np.array([np.inf, np.inf, 1.0])
        out = segmented_argmin(values, np.array([0, 2]), np.array([4, 2, 0]))
        assert_matches(device_name, out, np.array([1, 2]))

    def test_segmented_argmin_matches_serial_sweep(self, device_name, rng):
        values = rng.random(200)
        values[rng.integers(0, 200, 40)] = values[0]  # inject ties
        tiebreak = rng.integers(0, 25, 200)
        starts = np.concatenate([[0], np.unique(rng.integers(1, 200, 12))])
        out = segmented_argmin(values, starts, tiebreak)
        boundaries = np.append(starts, 200)
        expected = [
            min(range(boundaries[s], boundaries[s + 1]), key=lambda i: (values[i], tiebreak[i], i))
            for s in range(len(starts))
        ]
        assert_matches(device_name, out, np.array(expected))

    def test_stream_compact_idiom(self, device_name, rng):
        flags = rng.random(80) < 0.4
        payload = rng.random(80)
        ids = np.arange(80)
        count, (compact_payload, compact_ids) = stream_compact(flags, payload, ids)
        assert count == int(flags.sum())
        assert_matches(device_name, compact_payload, payload[flags])
        assert_matches(device_name, compact_ids, ids[flags])

    def test_active_device_executes_primitives(self, device_name):
        # The seam every renderer uses: activate, then call without a name.
        instrumentation = get_instrumentation()
        with use_device(device_name), instrumentation.scope(f"conformance.{device_name}"):
            assert get_device().name == device_name
            flags = np.array([False, True, True, False, True])
            count, (kept,) = stream_compact(flags, np.arange(5.0))
            map_field(lambda a: a + 1, kept)
        assert count == 3
        # reduce + scan + reverse_index + 1 gather (stream_compact) + map: all recorded.
        assert instrumentation.invocations(f"conformance.{device_name}") == 5


class TestRendererDifferentialOnDevice:
    """Render through the full stack on each device and diff against numpy.

    Correctness is *inherited*: the renderers are written purely in dpp
    primitives, so agreeing with the ``vectorized`` render on a real scene
    gates every structural primitive at once.
    """

    @pytest.fixture(scope="class")
    def reference_images(self, small_scene, small_camera):
        from repro.rendering import RayTracer, RayTracerConfig, Workload

        with use_device("vectorized"):
            result = RayTracer(small_scene, RayTracerConfig(workload=Workload.SHADING)).render(
                small_camera
            )
        return result.framebuffer.rgba.copy(), result.framebuffer.depth.copy()

    @pytest.mark.parametrize("device_name_inner", [d for d in DEVICES if d != "serial"])
    def test_raytrace_matches_vectorized(
        self, device_name_inner, small_scene, small_camera, reference_images
    ):
        from repro.rendering import RayTracer, RayTracerConfig, Workload

        with use_device(device_name_inner):
            result = RayTracer(small_scene, RayTracerConfig(workload=Workload.SHADING)).render(
                small_camera
            )
        rgba, depth = reference_images
        np.testing.assert_allclose(result.framebuffer.rgba, rgba, atol=1e-10, rtol=0.0)
        np.testing.assert_allclose(
            result.framebuffer.depth[np.isfinite(depth)],
            depth[np.isfinite(depth)],
            atol=1e-10,
            rtol=0.0,
        )

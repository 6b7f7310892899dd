"""Tests for the frontier kernel engine and its volume-renderer clients.

The engine itself is exercised with a toy kernel on both devices; the
structured and unstructured volume renderers are verified *golden-image
style* against the pre-refactor monolithic loops they keep in-tree as
``render_reference`` (the volume analogue of the ray tracer's differential
testing against ``brute_force_closest_hit``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.dpp import FrontierEngine, FrontierLanes, frontier, gather, use_device
from repro.dpp.instrument import get_instrumentation, reset_instrumentation
from repro.geometry import Camera
from repro.geometry.aabb import ray_box_intervals, safe_reciprocal
from repro.geometry.triangles import external_faces
from repro.rendering import (
    PhaseClock,
    Rasterizer,
    RayEmitter,
    RayTracer,
    RayTracerConfig,
    Renderer,
    RenderResult,
    Scene,
    StructuredVolumeConfig,
    StructuredVolumeRenderer,
    UnstructuredVolumeConfig,
    UnstructuredVolumeRenderer,
    Workload,
    make_renderer,
)
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.rays import screen_footprint
from repro.rendering.volume import budget, structured
from repro.rendering.volume.structured import _SlabSampleKernel
from repro.runtime.decomposition import BlockDecomposition
from repro.simulations.fields import get_simulation_field
from repro.techniques import TECHNIQUES
from repro.util.morton import morton_encode_2d


@pytest.fixture(autouse=True)
def _clean_instrumentation():
    reset_instrumentation()
    yield
    reset_instrumentation()


class _CountdownKernel:
    """Toy kernel: each lane counts down from its budget, accumulating steps."""

    output_fields = ("total",)

    def __init__(self):
        self.compactions = 0

    def on_compact(self, lanes):
        self.compactions += 1

    def step(self, lanes):
        live = ~lanes.retired
        lanes["remaining"][live] -= 1
        lanes["total"][live] += 1
        return lanes["remaining"] <= 0


class TestFrontierEngine:
    @pytest.fixture(autouse=True)
    def _compact_after_every_retirement(self, monkeypatch):
        monkeypatch.setattr(frontier, "FRONTIER_COMPACT_MIN", 1)

    def _run(self, device="vectorized"):
        budgets = np.array([1, 4, 2, 7, 3, 1, 5, 2], dtype=np.int64)
        lanes = FrontierLanes(
            np.arange(len(budgets), dtype=np.int64),
            {"remaining": budgets.copy(), "total": np.zeros(len(budgets), dtype=np.int64)},
        )
        outputs = {"total": np.zeros(len(budgets), dtype=np.int64)}
        kernel = _CountdownKernel()
        with use_device(device):
            steps = FrontierEngine().run(kernel, lanes, outputs)
        return budgets, outputs, steps, kernel

    def test_outputs_scattered_per_lane(self):
        budgets, outputs, steps, kernel = self._run()
        assert np.array_equal(outputs["total"], budgets)
        assert steps == budgets.max()
        # FRONTIER_COMPACT_MIN = 1 forces intermediate compactions, and the
        # hook runs once up front plus once per compaction that left lanes
        # resident.
        assert kernel.compactions >= 2

    def test_serial_device_identical(self):
        _, vec, _, _ = self._run(device="vectorized")
        _, ser, _, _ = self._run(device="serial")
        assert np.array_equal(vec["total"], ser["total"])

    def test_missing_output_field_rejected(self):
        lanes = FrontierLanes(np.arange(2), {"remaining": np.ones(2), "total": np.zeros(2)})
        with pytest.raises(KeyError):
            FrontierEngine().run(_CountdownKernel(), lanes, {})

    def test_max_steps_guard(self):
        class NeverRetires:
            output_fields = ()

            def step(self, lanes):
                return np.zeros(len(lanes), dtype=bool)

        lanes = FrontierLanes(np.arange(3), {"x": np.zeros(3)})
        with pytest.raises(RuntimeError):
            FrontierEngine(max_steps=5).run(NeverRetires(), lanes, {})

    def test_lane_state_validation(self):
        with pytest.raises(ValueError):
            FrontierLanes(np.arange(3), {"bad": np.zeros(2)})
        with pytest.raises(ValueError):
            FrontierLanes(np.zeros((2, 2)), {})


class TestSharedSlabInterval:
    def test_safe_reciprocal_keeps_sign(self):
        # The pre-refactor volume copies mapped tiny negative components to a
        # positive huge reciprocal, losing the entry/exit plane ordering.
        recip = safe_reciprocal(np.array([-1e-301, 1e-301, 0.0, -0.0, 2.0]))
        assert recip[0] < 0 < recip[1]
        assert recip[2] > 0 and recip[3] > 0
        assert recip[4] == 0.5

    def test_grazing_ray_interval_regression(self):
        # A ray outside the box in x, drifting toward it at -1e-301: the old
        # sign-lossy reciprocal reports the slab as already exited (negative
        # interval); the sign-correct one reports entry in the far future.
        origins = np.array([[1.5, -0.5, 0.5]])
        directions = np.array([[-1e-301, 1e-301, 0.0]])
        t_near, t_far = ray_box_intervals(origins, directions, np.zeros(3), np.ones(3))
        assert t_near[0] > 0 and t_far[0] >= t_near[0]

    def test_structured_interval_with_tiny_negative_direction(self, blob_grid):
        renderer = StructuredVolumeRenderer(blob_grid, "density")
        bounds = blob_grid.bounds
        origin = bounds.center + np.array([0.0, 0.0, -bounds.extent[2]])
        directions = np.array([[-1e-301, 0.0, 1.0], [1e-301, 0.0, 1.0]])
        origins = np.tile(origin, (2, 1))
        near, far = renderer._ray_box_interval(origins, directions)
        # The two grazing rays are mirror images; their spans must agree.
        assert near[0] == pytest.approx(near[1])
        assert far[0] == pytest.approx(far[1])
        assert far[0] > near[0] >= 0.0

    def test_interval_matches_brute_direction(self, blob_grid):
        renderer = StructuredVolumeRenderer(blob_grid, "density")
        camera = Camera.framing_bounds(blob_grid.bounds, 16, 16)
        origins, directions = camera.generate_rays()
        near, far = renderer._ray_box_interval(origins, directions)
        hit = far > near
        assert hit.any() and (~hit).any()
        assert np.all(near[hit] >= 0.0)


class TestGoldenStructured:
    @pytest.mark.parametrize("zoom", [1.0, 1.6])
    def test_matches_reference_on_rm_scene(self, small_grid, zoom):
        camera = Camera.framing_bounds(small_grid.bounds, 48, 48, zoom=zoom)
        renderer = StructuredVolumeRenderer(small_grid, "density")
        fast = renderer.render(camera)
        slow = renderer.render_reference(camera)
        assert np.allclose(fast.framebuffer.rgba, slow.framebuffer.rgba, atol=1e-10, rtol=0.0)
        assert np.array_equal(fast.framebuffer.depth, slow.framebuffer.depth)
        assert fast.features.active_pixels == slow.features.active_pixels
        assert fast.features.samples_per_ray == pytest.approx(slow.features.samples_per_ray)

    @pytest.mark.parametrize("rank", [0, 7])
    def test_matches_reference_on_an_off_centre_block(self, rank):
        # A corner block of an 8-rank decomposition under the camera that
        # frames all eight: the engine emits rays only inside the block's
        # screen footprint, the reference over the whole screen.
        decomposition = BlockDecomposition(8, 6)
        grid = decomposition.block_grid_with_field(rank, "scalar", get_simulation_field("kripke"))
        camera = Camera.framing_bounds(decomposition.global_bounds, 48, 48)
        assert len(screen_footprint(camera, grid.bounds)) < 48 * 48 // 2
        renderer = StructuredVolumeRenderer(grid, "scalar")
        fast = renderer.render(camera)
        slow = renderer.render_reference(camera)
        assert np.allclose(fast.framebuffer.rgba, slow.framebuffer.rgba, atol=1e-10, rtol=0.0)
        assert np.array_equal(fast.framebuffer.depth, slow.framebuffer.depth)
        assert fast.features.active_pixels == slow.features.active_pixels > 0
        assert fast.features.samples_per_ray == pytest.approx(slow.features.samples_per_ray)

    def test_matches_reference_with_aggressive_termination(self, blob_grid, monkeypatch):
        monkeypatch.setattr(structured, "SAMPLE_CHUNK", 8)
        camera = Camera.framing_bounds(blob_grid.bounds, 40, 40, zoom=1.3)
        config = StructuredVolumeConfig(early_termination_alpha=0.3)
        renderer = StructuredVolumeRenderer(blob_grid, "density", config=config)
        fast = renderer.render(camera)
        slow = renderer.render_reference(camera)
        assert np.allclose(fast.framebuffer.rgba, slow.framebuffer.rgba, atol=1e-10, rtol=0.0)
        assert np.array_equal(fast.framebuffer.depth, slow.framebuffer.depth)

    @pytest.mark.parametrize("alpha", [0.98, 0.3])
    @pytest.mark.parametrize("rank", [0, 7])
    def test_output_invariant_to_sample_budget(self, rank, alpha, monkeypatch):
        # The slab's lane blocks size the temporaries and never a byte: three
        # lanes a block and one block per slab give the same image and
        # features, with the same dpp elements over more invocations.  At
        # alpha 0.3 rays retire mid-march and ride on uncompacted, so the
        # masked branch runs in several blocks of one slab.
        decomposition = BlockDecomposition(8, 6)
        grid = decomposition.block_grid_with_field(rank, "scalar", get_simulation_field("kripke"))
        camera = Camera.framing_bounds(decomposition.global_bounds, 48, 48)
        monkeypatch.setattr(structured, "SAMPLE_CHUNK", 8)
        config = StructuredVolumeConfig(early_termination_alpha=alpha)
        renderer = StructuredVolumeRenderer(grid, "scalar", config=config)
        masked = []
        composite_block = _SlabSampleKernel._composite_block

        def spy(kernel, state, offsets, live):
            masked.append(live is not None)
            composite_block(kernel, state, offsets, live)

        monkeypatch.setattr(_SlabSampleKernel, "_composite_block", spy)
        instrumentation = get_instrumentation()
        runs = []
        for samples in (3 * structured.SAMPLE_CHUNK, 10**9):
            monkeypatch.setattr(budget, "SAMPLE_BUDGET", samples)
            reset_instrumentation()
            masked.clear()
            result = renderer.render(camera)
            ops = (
                instrumentation.elements("volume.sampling"),
                instrumentation.invocations("volume.sampling"),
            )
            runs.append((result, sum(masked), ops))
        (blocked, blocked_masked, blocked_ops), (whole, _, whole_ops) = runs
        assert blocked.framebuffer.rgba.tobytes() == whole.framebuffer.rgba.tobytes()
        assert blocked.framebuffer.depth.tobytes() == whole.framebuffer.depth.tobytes()
        assert blocked.features == whole.features
        assert blocked_ops[0] == whole_ops[0]
        assert blocked_ops[1] > whole_ops[1]
        if alpha < 0.5:
            assert blocked_masked > 1

    def test_sampling_registers_dpp_traffic(self, blob_grid):
        camera = Camera.framing_bounds(blob_grid.bounds, 32, 32, zoom=1.2)
        instrumentation = get_instrumentation()
        StructuredVolumeRenderer(blob_grid, "density").render(camera)
        # The slab kernel routes sample classification through map_field and
        # the engine flush through scatter/stream-compact, so the op-counter
        # choke point finally observes the volume hot path.
        assert instrumentation.invocations("volume.sampling") > 0
        assert instrumentation.elements("volume.sampling") > 0
        assert instrumentation.bytes_moved("volume.sampling") > 0

    def test_engine_through_serial_device(self, blob_grid):
        camera = Camera.framing_bounds(blob_grid.bounds, 24, 24, zoom=1.2)
        renderer = StructuredVolumeRenderer(blob_grid, "density")
        fast = renderer.render(camera)
        with use_device("serial"):
            serial = renderer.render(camera)
        assert np.allclose(fast.framebuffer.rgba, serial.framebuffer.rgba, atol=0.0)
        assert np.array_equal(fast.framebuffer.depth, serial.framebuffer.depth)


class TestGoldenUnstructured:
    @pytest.mark.parametrize("passes", [1, 3])
    def test_matches_reference(self, small_tets, passes):
        camera = Camera.framing_bounds(small_tets.bounds, 36, 36, zoom=1.2)
        config = UnstructuredVolumeConfig(samples_in_depth=60, num_passes=passes)
        renderer = UnstructuredVolumeRenderer(small_tets, "density", config=config)
        fast = renderer.render(camera)
        slow = renderer.render_reference(camera)
        assert np.allclose(fast.framebuffer.rgba, slow.framebuffer.rgba, atol=1e-10, rtol=0.0)
        assert np.array_equal(fast.framebuffer.depth, slow.framebuffer.depth)
        assert fast.features.active_pixels == slow.features.active_pixels
        assert fast.features.samples_per_ray == pytest.approx(slow.features.samples_per_ray)

    def test_early_termination_matches_reference(self, small_tets):
        camera = Camera.framing_bounds(small_tets.bounds, 32, 32, zoom=1.4)
        config = UnstructuredVolumeConfig(
            samples_in_depth=60, num_passes=4, early_termination_alpha=0.2
        )
        renderer = UnstructuredVolumeRenderer(small_tets, "density", config=config)
        fast = renderer.render(camera)
        slow = renderer.render_reference(camera)
        assert np.allclose(fast.framebuffer.rgba, slow.framebuffer.rgba, atol=1e-10, rtol=0.0)

    def test_compositing_registers_dpp_traffic(self, small_tets):
        camera = Camera.framing_bounds(small_tets.bounds, 24, 24, zoom=1.2)
        instrumentation = get_instrumentation()
        config = UnstructuredVolumeConfig(samples_in_depth=40, num_passes=2)
        UnstructuredVolumeRenderer(small_tets, "density", config=config).render(camera)
        assert instrumentation.elements("volume.sampling") > 0
        assert instrumentation.elements("volume.compositing") > 0


class TestRayEmitter:
    def test_morton_order_covers_all_pixels(self):
        camera = Camera(width=16, height=8)
        pixel_ids, origins, directions = RayEmitter(camera, morton_order=True).emit()
        assert sorted(pixel_ids.tolist()) == list(range(16 * 8))
        px = (pixel_ids % 16).astype(np.uint32)
        py = (pixel_ids // 16).astype(np.uint32)
        codes = morton_encode_2d(px, py)
        assert np.all(np.diff(codes) >= 0)
        assert np.allclose(np.linalg.norm(directions, axis=1), 1.0)

    def test_supersample_emits_four_rays_per_pixel(self):
        camera = Camera(width=6, height=4)
        pixel_ids, origins, directions = RayEmitter(camera, supersample=4).emit()
        assert len(pixel_ids) == 4 * 6 * 4
        unique, counts = np.unique(pixel_ids, return_counts=True)
        assert np.all(counts == 4)

    def test_invalid_supersample_rejected(self):
        with pytest.raises(ValueError):
            RayEmitter(Camera(), supersample=2)

    def test_emit_clipped_matches_interval_helper(self, blob_grid):
        camera = Camera.framing_bounds(blob_grid.bounds, 24, 24)
        pixel_ids, origins, directions, near, far = RayEmitter(camera).emit_clipped(
            blob_grid.bounds
        )
        assert len(pixel_ids) > 0
        assert np.all(far > near) and np.all(near >= 0.0)
        all_o, all_d = camera.generate_rays()
        t_near, t_far = ray_box_intervals(all_o, all_d, blob_grid.bounds.low, blob_grid.bounds.high)
        expected = np.flatnonzero(t_far > np.maximum(t_near, 0.0))
        assert np.array_equal(pixel_ids, expected)


class TestRendererProtocol:
    def test_all_families_satisfy_protocol(self, small_scene, blob_grid, small_tets):
        renderers = [
            RayTracer(small_scene),
            Rasterizer(small_scene),
            StructuredVolumeRenderer(blob_grid, "density"),
            UnstructuredVolumeRenderer(small_tets, "density"),
        ]
        camera = Camera.framing_bounds(blob_grid.bounds, 16, 16)
        for renderer in renderers:
            assert isinstance(renderer, Renderer)
            assert renderer.visibility_depth(camera) > 0.0

    def test_grouped_seconds_covers_every_phase(self, small_scene, small_camera):
        result = RayTracer(small_scene).render(small_camera)
        groups = result.grouped_seconds()
        assert set(groups) == {"setup", "sample", "shade", "composite"}
        assert sum(groups.values()) == pytest.approx(result.total_seconds)


def _ray_tracer(**config):
    return lambda grid: RayTracer(
        Scene(external_faces(grid, scalar_field="density")), RayTracerConfig(**config)
    )


_RAY_TRACE_SHADING = {"bvh_build", "ray_setup", "trace", "shade_setup", "shade", "accumulate"}
_ALGORITHM_2 = {"initialization", "pass_selection", "screen_space", "sampling", "compositing"}

#: The phases each ``TECHNIQUES`` row reports on the blob grid (the ray-tracing
#: row is ``Workload.SHADING``) -- the names corpus rows, the cost model,
#: Figures 4/5 and Tables 6/7 read.
_TECHNIQUE_PHASES = {
    "raytrace": _RAY_TRACE_SHADING,
    "raster": {"culling", "rasterize", "fragments"},
    "volume": {"ray_setup", "sampling", "compositing"},
    "volume_unstructured": _ALGORITHM_2,
}

#: ``(id, family, make(grid) -> renderer, phases)``: every ``TECHNIQUES`` row,
#: the other ray-tracing workloads, and the optional reflection bounce.
_CLOCK_CASES = [
    *(
        (
            name,
            row.family,
            lambda grid, name=name: make_renderer(name, grid, "density", 40),
            _TECHNIQUE_PHASES[name],
        )
        for name, row in TECHNIQUES.items()
    ),
    (
        "raytrace-intersection-only",
        "raytrace",
        _ray_tracer(workload=Workload.INTERSECTION_ONLY),
        {"bvh_build", "ray_setup", "trace"},
    ),
    (
        "raytrace-full",
        "raytrace",
        _ray_tracer(workload=Workload.FULL, ao_samples=2),
        _RAY_TRACE_SHADING | {"compaction", "ambient_occlusion", "shadows"},
    ),
    (
        "raytrace-reflections",
        "raytrace",
        _ray_tracer(reflections=True),
        _RAY_TRACE_SHADING | {"reflections"},
    ),
]


class TestPhaseClock:
    @pytest.mark.parametrize(
        "family, make, phases",
        [case[1:] for case in _CLOCK_CASES],
        ids=[case[0] for case in _CLOCK_CASES],
    )
    def test_render_phases(self, blob_grid, family, make, phases):
        renderer = make(blob_grid)
        camera = Camera.framing_bounds(blob_grid.bounds, 32, 32, zoom=1.2)
        renderer.render(camera)  # the timed render reuses the cached BVH
        reset_instrumentation()
        start = time.perf_counter()
        result = renderer.render(camera)
        wall = time.perf_counter() - start
        assert set(result.phase_seconds) == phases
        # No second of the render is charged to two phases (the reflection
        # bounce used to be timed inside ``shade`` and again as ``reflections``).
        assert result.seconds_excluding("bvh_build") <= wall
        # A phase's primitives are filed under "<family>.<phase>" -- the
        # convention Tables 6/7 read the per-phase counters by.
        scopes = set(get_instrumentation().scopes())
        assert scopes <= {f"{family}.{phase}" for phase in phases}
        assert scopes or family == "raster"  # the rasterizer calls no primitive

    def test_unregistered_name_raises_before_the_block_runs(self):
        clock = PhaseClock("volume")
        ran = []
        with pytest.raises(ValueError, match="unregistered phase"):
            with clock.phase("smapling"):
                ran.append(True)
        with pytest.raises(ValueError, match="unregistered phase"):
            clock.add("smapling", 1.0)
        assert not ran and clock.seconds == {}

    def test_repeated_phase_accumulates_and_nested_time_is_charged_once(self):
        clock = PhaseClock("volume")
        start = time.perf_counter()
        with clock.phase("compositing"):
            for _ in range(2):
                with clock.phase("sampling"):
                    time.sleep(0.005)
            with clock.phase("compositing"):
                time.sleep(0.002)
        wall = time.perf_counter() - start
        clock.add("sampling", 1.0)
        assert set(clock.seconds) == {"sampling", "compositing"}
        assert clock.seconds["sampling"] >= 1.01
        assert 0.002 <= clock.seconds["compositing"] <= wall - 0.01
        assert sum(clock.seconds.values()) - 1.0 <= wall

    def test_exception_inside_a_phase_records_it_and_restores_the_scope(self):
        clock = PhaseClock("volume")
        with pytest.raises(RuntimeError, match="boom"):
            with clock.phase("sampling"):
                with clock.phase("compositing"):
                    gather(np.arange(4), np.arange(2))
                    raise RuntimeError("boom")
        assert set(clock.seconds) == {"sampling", "compositing"}
        gather(np.arange(4), np.arange(2))
        instrumentation = get_instrumentation()
        assert instrumentation.invocations("volume.compositing") == 1
        assert instrumentation.invocations("global") == 1


class TestDepthConvention:
    def test_finite_depth_on_miss_rejected(self):
        framebuffer = Framebuffer(4, 4)
        framebuffer.depth[0, 0] = 0.0  # "0.0 for misses" -- the old bug
        with pytest.raises(ValueError, match="depth convention"):
            RenderResult(framebuffer)

    def test_covered_pixel_without_depth_rejected(self):
        framebuffer = Framebuffer(4, 4)
        framebuffer.rgba[1, 1] = [1.0, 0.0, 0.0, 1.0]
        with pytest.raises(ValueError, match="depth convention"):
            RenderResult(framebuffer)

    def test_unregistered_phase_name_rejected(self):
        framebuffer = Framebuffer(2, 2)
        with pytest.raises(ValueError, match="unregistered phase"):
            RenderResult(framebuffer, phase_seconds={"made_up_phase": 1.0})

    def test_conforming_result_accepted(self):
        framebuffer = Framebuffer(2, 2)
        framebuffer.write_pixels(
            np.array([0]), np.array([[1.0, 0.0, 0.0, 1.0]]), np.array([2.0])
        )
        result = RenderResult(framebuffer, phase_seconds={"trace": 0.5, "shade": 0.25})
        assert result.grouped_seconds()["sample"] == 0.5

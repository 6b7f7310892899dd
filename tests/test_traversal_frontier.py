"""Edge-case and engine tests for the compacted-frontier traversal kernel.

Everything here is verified differentially against
:func:`repro.rendering.raytracer.traversal.brute_force_closest_hit`, which
shares the Moller-Trumbore kernel with the engine, so the default
``float64`` path must agree exactly on hit selection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dpp import get_instrumentation, use_device
from repro.dpp.instrument import reset_instrumentation
from repro.geometry import (
    Camera,
    TriangleMesh,
    external_faces,
    isosurface_marching_tets,
    make_named_dataset,
)
from repro.rendering import rays
from repro.rendering.rays import screen_footprint
from repro.rendering.raytracer import BVH, RayTracer, RayTracerConfig, Workload, build_bvh
from repro.rendering.raytracer.traversal import (
    _TraversalKernel,
    any_hit,
    brute_force_closest_hit,
    closest_hit,
)
from repro.rendering.scene import Scene
from repro.runtime.decomposition import BlockDecomposition
from repro.simulations.fields import get_simulation_field


@pytest.fixture(autouse=True)
def _clean_instrumentation():
    reset_instrumentation()
    yield
    reset_instrumentation()


def _assert_matches_brute_force(bvh, mesh, origins, directions, exact_triangles=True, **kwargs):
    fast = closest_hit(bvh, mesh, origins, directions, **kwargs)
    slow = brute_force_closest_hit(mesh, origins, directions, **kwargs)
    assert np.array_equal(fast.hit_mask, slow.hit_mask)
    if exact_triangles:
        assert np.array_equal(fast.triangle, slow.triangle)
    hit = fast.hit_mask
    assert np.allclose(fast.t[hit], slow.t[hit], rtol=0.0, atol=1e-6)
    if exact_triangles:
        assert np.allclose(fast.u[hit], slow.u[hit], atol=1e-9)
        assert np.allclose(fast.v[hit], slow.v[hit], atol=1e-9)
    return fast, slow


class TestTraversalEdgeCases:
    def test_identical_triangles_and_t(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        _assert_matches_brute_force(bvh, small_surface, origins, directions)

    def test_any_hit_with_per_ray_t_max(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        reference = closest_hit(bvh, small_surface, origins, directions)
        # Per-ray limits straddling each ray's own hit distance: slightly
        # beyond keeps the hit, slightly short of it removes the hit.
        finite = np.where(np.isfinite(reference.t), reference.t, 1.0)
        beyond = finite * 1.01
        occluded = any_hit(bvh, small_surface, origins, directions, t_max=beyond)
        assert np.array_equal(occluded, reference.hit_mask)
        short = finite * 0.99
        occluded_short = any_hit(bvh, small_surface, origins, directions, t_max=short)
        brute_short = brute_force_closest_hit(
            small_surface, origins, directions, t_max=short
        )
        assert np.array_equal(occluded_short, brute_short.hit_mask)
        assert occluded_short.sum() < occluded.sum()

    @pytest.mark.parametrize(
        ("dataset", "dims", "isovalue", "seed"),
        [
            ("rm", 25, 0.5, 3),
            ("rm", 19, 0.5, 3),
            ("rm", 15, 0.5, 3),
            ("lead-telluride", 17, 0.4, 5),
            ("seismic", 17, 0.6, 7),
            ("enzo", 15, 0.4, 9),
        ],
        ids=["rm-25", "rm-19", "rm-15", "lead-telluride-17", "seismic-17", "enzo-15"],
    )
    def test_benchmark_pool_scenes(self, dataset, dims, isovalue, seed):
        # The isosurfaces of ``benchmarks/common.py``'s ``surface_scene_pool``,
        # which the paper-table benchmarks render, at 48^2.
        grid = make_named_dataset(dataset, (dims, dims, dims), seed=seed)
        mesh = isosurface_marching_tets(grid, next(iter(grid.point_fields)), isovalue)
        assert mesh.num_triangles > 0
        origins, directions = Camera.framing_bounds(mesh.bounds, 48, 48).generate_rays()
        fast, _ = _assert_matches_brute_force(build_bvh(mesh), mesh, origins, directions)
        assert fast.hit_mask.any()

    @pytest.mark.parametrize("rank", [0, 7])
    def test_off_centre_block_render_matches_a_full_screen_trace(self, rank):
        # A corner block of an 8-rank decomposition under the camera that
        # frames all eight: the renderer traces only the block's screen
        # footprint, the oracle every pixel of the screen.
        decomposition = BlockDecomposition(8, 6)
        grid = decomposition.block_grid_with_field(rank, "scalar", get_simulation_field("kripke"))
        mesh = external_faces(grid, scalar_field="scalar")
        camera = Camera.framing_bounds(decomposition.global_bounds, 48, 48)
        assert len(screen_footprint(camera, mesh.bounds)) < 48 * 48 // 2
        origins, directions = camera.generate_rays()
        slow = brute_force_closest_hit(mesh, origins, directions)
        config = RayTracerConfig(workload=Workload.INTERSECTION_ONLY)
        result = RayTracer(Scene(mesh), config).render(camera)
        depth = result.framebuffer.depth.ravel()
        covered = np.flatnonzero(slow.hit_mask)
        assert np.array_equal(np.flatnonzero(np.isfinite(depth)), covered)
        assert result.features.active_pixels == len(covered) > 0
        assert np.allclose(depth[covered], slow.t[covered], rtol=0.0, atol=1e-6)

    def test_off_centre_block_supersampled_render_is_the_full_screen_one(self, monkeypatch):
        # Super-samples sit a quarter pixel off their pixel center, inside the
        # footprint's one pixel of padding: ambient occlusion, shadows and the
        # 4x average must come out byte for byte as with every pixel emitted.
        decomposition = BlockDecomposition(8, 6)
        grid = decomposition.block_grid_with_field(7, "scalar", get_simulation_field("kripke"))
        scene = Scene(external_faces(grid, scalar_field="scalar"))
        camera = Camera.framing_bounds(decomposition.global_bounds, 40, 40)
        config = RayTracerConfig(workload=Workload.FULL, supersample=4, seed=3)
        footprint = RayTracer(scene, config).render(camera)
        monkeypatch.setattr(
            rays, "screen_footprint", lambda camera, bounds: np.arange(camera.width * camera.height)
        )
        whole_screen = RayTracer(scene, config).render(camera)
        assert footprint.framebuffer.rgba.tobytes() == whole_screen.framebuffer.rgba.tobytes()
        assert footprint.framebuffer.depth.tobytes() == whole_screen.framebuffer.depth.tobytes()
        assert footprint.features == whole_screen.features
        assert footprint.features.active_pixels > 0

    def test_rays_with_zero_direction_components(self, small_surface):
        center = small_surface.bounds.center
        lo = small_surface.bounds.low - 1.0
        origins = np.array(
            [
                [center[0], center[1], lo[2]],
                [center[0], lo[1], center[2]],
                [lo[0], center[1], center[2]],
                [center[0], center[1], lo[2]],
                [center[0], center[1], center[2]],
            ]
        )
        directions = np.array(
            [
                [0.0, 0.0, 1.0],  # axis-aligned: two zero components
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1e-320, 1.0],  # subnormal component exercises _safe_inverse
                [0.0, 0.0, 0.0],  # fully degenerate ray must simply miss
            ]
        )
        bvh = build_bvh(small_surface)
        # Axis-aligned rays through the grid center strike shared vertices
        # exactly, producing equal-t ties between adjacent triangles whose
        # winner legitimately depends on conservative entry culling -- so
        # compare hit masks and distances rather than triangle identity.
        fast, _ = _assert_matches_brute_force(
            bvh, small_surface, origins, directions, exact_triangles=False
        )
        assert not fast.hit_mask[-1]

    def test_rays_originating_inside_leaf_aabbs(self, small_surface, rng):
        # Triangle centroids are interior points of their leaf boxes; rays
        # starting there exercise the negative-near slab clamp.
        centroids = small_surface.centroids()
        pick = rng.integers(0, len(centroids), size=64)
        origins = centroids[pick]
        directions = rng.standard_normal((64, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        bvh = build_bvh(small_surface)
        _assert_matches_brute_force(bvh, small_surface, origins, directions)

    def test_engine_through_serial_device(self, small_surface, small_camera):
        # The frontier engine routes compaction/scatter/argmin through the
        # dpp Device layer, so it must run identically on the serial backend.
        pixel_ids = np.arange(0, small_camera.width * small_camera.height, 37)
        origins, directions = small_camera.generate_rays(pixel_ids)
        bvh = build_bvh(small_surface)
        fast = closest_hit(bvh, small_surface, origins, directions)
        with use_device("serial"):
            serial = closest_hit(bvh, small_surface, origins, directions)
        assert np.array_equal(fast.triangle, serial.triangle)
        assert np.array_equal(fast.t, serial.t)

    def test_traversal_feeds_op_counters(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        instrumentation = get_instrumentation()
        with instrumentation.scope("frontier-test"):
            closest_hit(bvh, small_surface, origins, directions)
        assert instrumentation.invocations("frontier-test") > 0
        assert instrumentation.elements("frontier-test") > 0
        assert instrumentation.bytes_moved("frontier-test") > 0


class TestDeepStacks:
    def _skewed_mesh(self, count: int) -> TriangleMesh:
        """Exponentially spaced triangles force skewed (deep) SAH trees."""
        spacing = 1.5 ** np.arange(count)
        vertices = []
        triangles = []
        for index, x in enumerate(spacing):
            base = index * 3
            vertices.extend(
                [[x, 0.0, 0.0], [x + 0.1, 0.0, 0.0], [x, 0.1, 0.0]]
            )
            triangles.append([base, base + 1, base + 2])
        return TriangleMesh(np.array(vertices), np.array(triangles))

    def test_deep_sah_tree_traversal(self, rng):
        mesh = self._skewed_mesh(96)
        bvh = build_bvh(mesh, leaf_size=1, method="sah")
        # The geometry is constructed so the binned SAH split peels a few
        # primitives off one side per level, far deeper than the balanced
        # log2(n) depth a uniform distribution would give.
        assert bvh.max_depth() >= 14
        origins = rng.uniform(-1.0, 1.0, size=(128, 3))
        origins[:, 2] = 5.0
        directions = np.tile([0.0, 0.0, -1.0], (128, 1))
        # Aim a subset straight at known triangles so hits definitely occur.
        targets = mesh.centroids()[rng.integers(0, mesh.num_triangles, 64)]
        origins[:64, :2] = targets[:, :2]
        _assert_matches_brute_force(bvh, mesh, origins, directions)

    def test_deep_lbvh_tree_traversal(self, rng):
        mesh = self._skewed_mesh(48)
        bvh = build_bvh(mesh, leaf_size=1, method="lbvh")
        origins = rng.uniform(0.0, 2.0, size=(64, 3))
        origins[:, 2] = 3.0
        directions = np.tile([0.0, 0.0, -1.0], (64, 1))
        _assert_matches_brute_force(bvh, mesh, origins, directions)


def _colocated_cluster(rng, count: int) -> TriangleMesh:
    """``count`` near-identical triangles: every node box overlaps every ray."""
    jitter = rng.normal(scale=1e-3, size=(count, 3, 3))
    base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    vertices = (base[None, :, :] + jitter).reshape(-1, 3)
    return TriangleMesh(vertices, np.arange(len(vertices)).reshape(-1, 3))


class TestDenseOverlap:
    @pytest.mark.parametrize("claimed_depth", [None, 0])
    def test_colocated_cluster_grows_stack(self, claimed_depth, monkeypatch):
        # ~1k near-identical triangles in one-triangle leaves make every node
        # box overlap every ray, so the multi-pop tail window expands
        # BFS-style past the depth-based stack sizing and _grow_stack widens
        # the stacks mid-traversal; claiming a depth-0 tree starts them at
        # the bare multi-pop slack and makes them grow twice.  An entry lost
        # in the widening would drop a subtree and change some ray's hit.
        rng = np.random.default_rng(0)
        mesh = _colocated_cluster(rng, 1024)
        bvh = build_bvh(mesh, leaf_size=1)
        if claimed_depth is not None:
            monkeypatch.setattr(BVH, "max_depth", lambda self: claimed_depth)
        grown = []
        grow_stack = _TraversalKernel._grow_stack

        def spy(kernel, lanes, new_max):
            grown.append((kernel.max_stack, new_max))
            return grow_stack(kernel, lanes, new_max)

        monkeypatch.setattr(_TraversalKernel, "_grow_stack", spy)
        count = 600
        origins = np.column_stack(
            [rng.uniform(-0.2, 1.0, count), rng.uniform(-0.2, 1.0, count), np.full(count, 2.0)]
        )
        directions = np.tile([0.0, 0.0, -1.0], (count, 1))
        fast = closest_hit(bvh, mesh, origins, directions)
        assert len(grown) >= (1 if claimed_depth is None else 2)
        slow = brute_force_closest_hit(mesh, origins, directions)
        assert 0 < np.count_nonzero(slow.hit_mask) < count
        for name in ("triangle", "t", "u", "v"):
            assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name

        grown.clear()
        t_max = rng.uniform(1.5, 2.5, count)
        occluded = any_hit(bvh, mesh, origins, directions, t_max=t_max)
        assert grown
        limited = brute_force_closest_hit(mesh, origins, directions, t_max=t_max)
        assert 0 < np.count_nonzero(limited.hit_mask) < np.count_nonzero(slow.hit_mask)
        assert np.array_equal(occluded, limited.hit_mask)


class TestGeometryCacheInvalidation:
    def test_mutated_mesh_recomputes_triangle_soa(self):
        mesh = TriangleMesh(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[0, 1, 2]]),
        )
        bvh = build_bvh(mesh)
        origins = np.array([[0.25, 0.25, 1.0]])
        directions = np.array([[0.0, 0.0, -1.0]])
        before = closest_hit(bvh, mesh, origins, directions)
        assert before.t[0] == pytest.approx(1.0)
        # Shift the triangle down in place; the documented remedy must reach
        # the BVH's cached triangle SoA as well as the mesh's corner cache.
        mesh.vertices[:, 2] -= 0.5
        mesh.invalidate_caches()
        rebuilt = build_bvh(mesh)
        after = closest_hit(rebuilt, mesh, origins, directions)
        assert after.t[0] == pytest.approx(1.5)
        # Same BVH object queried again also sees the fresh corner expansion.
        stale_check = closest_hit(bvh, mesh, origins, directions)
        assert stale_check.t[0] == pytest.approx(1.5)

    def test_node_boxes_are_the_exact_node_bounds_and_cached(self, small_surface):
        bvh = build_bvh(small_surface)
        boxes = bvh.node_boxes()
        assert bvh.node_boxes() is boxes
        expected = [corner[:, axis] for corner in (bvh.node_low, bvh.node_high) for axis in range(3)]
        for component, exact in zip(boxes, expected):
            assert component.dtype == np.float64 and component.flags.c_contiguous
            assert np.array_equal(component, exact)  # no padding: the kernel tests the built boxes
        assert bvh.triangle_soa(small_surface) is bvh.triangle_soa(small_surface)


class TestRayState:
    def test_float32_rays_are_traced_in_float64(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        origins32, directions32 = origins.astype(np.float32), directions.astype(np.float32)
        bvh = build_bvh(small_surface)
        narrow = closest_hit(bvh, small_surface, origins32, directions32)
        widened = closest_hit(
            bvh, small_surface, origins32.astype(np.float64), directions32.astype(np.float64)
        )
        assert narrow.t.dtype == narrow.u.dtype == narrow.v.dtype == np.float64
        assert np.any(narrow.hit_mask)
        for field in ("triangle", "t", "u", "v", "nodes_visited"):
            assert np.array_equal(getattr(narrow, field), getattr(widened, field)), field
        assert np.array_equal(
            any_hit(bvh, small_surface, origins32, directions32),
            any_hit(bvh, small_surface, origins32.astype(np.float64), directions32.astype(np.float64)),
        )

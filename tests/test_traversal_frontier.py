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
from repro.geometry import Camera, TriangleMesh, isosurface_marching_tets, make_named_dataset
from repro.rendering.raytracer import RayTracer, RayTracerConfig, Workload, build_bvh
from repro.rendering.raytracer.traversal import (
    any_hit,
    brute_force_closest_hit,
    closest_hit,
)


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


class TestDenseOverlap:
    def test_colocated_cluster_grows_stack(self, rng):
        # ~1k near-identical triangles make every node box overlap every ray,
        # so the multi-pop tail window expands BFS-style far past the
        # depth-based stack sizing; the engine must widen stacks on demand
        # instead of overflowing into neighboring lanes.
        jitter = rng.normal(scale=1e-3, size=(1024, 3, 3))
        base = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        corners = base[None, :, :] + jitter
        vertices = corners.reshape(-1, 3)
        triangles = np.arange(len(vertices)).reshape(-1, 3)
        mesh = TriangleMesh(vertices, triangles)
        bvh = build_bvh(mesh)
        origins = np.tile([0.25, 0.25, 2.0], (600, 1))
        directions = np.tile([0.0, 0.0, -1.0], (600, 1))
        _assert_matches_brute_force(bvh, mesh, origins, directions)


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


class TestRayDtype:
    def test_float32_mode_close_to_float64(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        exact = closest_hit(bvh, small_surface, origins, directions)
        fast = closest_hit(
            bvh, small_surface, origins, directions, dtype=np.float32
        )
        agree = exact.hit_mask == fast.hit_mask
        assert agree.mean() > 0.99
        both = exact.hit_mask & fast.hit_mask
        assert np.allclose(exact.t[both], fast.t[both], rtol=1e-3)

    def test_pipeline_ray_dtype_plumbing(self, small_scene, small_camera):
        config = RayTracerConfig(
            workload=Workload.FULL, ao_samples=2, ray_dtype="float32", seed=3
        )
        result = RayTracer(small_scene, config).render(small_camera)
        assert result.framebuffer.active_pixels() > 0
        reference = RayTracer(
            small_scene,
            RayTracerConfig(workload=Workload.FULL, ao_samples=2, seed=3),
        ).render(small_camera)
        # Reduced precision should not change which pixels are covered.
        assert result.features.active_pixels == reference.features.active_pixels

    def test_invalid_ray_dtype_rejected(self):
        with pytest.raises(ValueError):
            RayTracerConfig(ray_dtype="float16")

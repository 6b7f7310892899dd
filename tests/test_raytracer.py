"""Tests for the BVH builders, traversal kernels, shading, and the ray-tracing pipeline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Camera, TriangleMesh
from repro.rendering.raytracer import RayTracer, RayTracerConfig, Workload, build_bvh
from repro.rendering.raytracer.bvh import BVH, _Builder
from repro.rendering.raytracer.shading import hemisphere_samples, occlusion_to_ambient
from repro.rendering.raytracer.traversal import (
    any_hit,
    brute_force_closest_hit,
    closest_hit,
    moller_trumbore,
    ray_aabb_intersect,
)
from repro.rendering.scene import Light, Material, Scene
from repro.util.morton import morton_codes_points


def _random_triangle_soup(rng, count: int) -> TriangleMesh:
    vertices = rng.random((count * 3, 3))
    triangles = np.arange(count * 3).reshape(count, 3)
    return TriangleMesh(vertices, triangles, rng.random(count * 3))


def _recursive_lbvh(mesh: TriangleMesh, leaf_size: int) -> BVH:
    """The node-at-a-time LBVH the level-synchronous build replaced, kept as its oracle.

    Each range of the Morton-sorted codes splits where the highest differing
    bit of its first and last code flips (Karras 2012); ranges whose codes are
    all identical split at the midpoint.
    """
    lows, highs = mesh.triangle_bounds()
    centroids = mesh.centroids()
    codes = morton_codes_points(centroids)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]

    def split(order: np.ndarray, start: int, end: int) -> int:
        first = int(sorted_codes[start])
        last = int(sorted_codes[end - 1])
        if first == last:
            return (start + end) // 2
        top_bit = (first ^ last).bit_length() - 1
        # First index whose code has the highest differing bit set.
        threshold = ((first >> top_bit) | 1) << top_bit
        return start + int(np.searchsorted(sorted_codes[start:end], threshold))

    builder = _Builder(lows, highs, centroids, leaf_size)
    return builder.finish(builder.build(order, split), leaf_size, "lbvh")


def _depth_first(bvh: BVH) -> list[tuple]:
    """Per node, left subtree first: its leaf range (or ``None``) and its box.

    The two builders number nodes differently; this is the tree without the numbering.
    """
    nodes = []
    stack = [0]
    while stack:
        node = stack.pop()
        count = int(bvh.primitive_count[node])
        leaf_range = (int(bvh.first_primitive[node]), count) if count else None
        nodes.append((leaf_range, bvh.node_low[node], bvh.node_high[node]))
        if not count:
            stack += [int(bvh.right_child[node]), int(bvh.left_child[node])]
    return nodes


class TestBVH:
    @given(
        seed=st.integers(0, 10_000),
        distinct=st.integers(1, 80),
        copies=st.integers(1, 6),
        leaf_size=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_level_synchronous_lbvh_is_the_recursive_tree(self, seed, distinct, copies, leaf_size):
        # ``copies`` coincident triangles per distinct one share a centroid, hence
        # a Morton code: those ranges exercise the midpoint split.  One distinct
        # triangle, one copy is the single-node tree.
        soup = _random_triangle_soup(np.random.default_rng(seed), distinct)
        mesh = TriangleMesh(soup.vertices, np.repeat(soup.triangles, copies, axis=0))
        fast = build_bvh(mesh, leaf_size=leaf_size)
        slow = _recursive_lbvh(mesh, leaf_size)
        assert np.array_equal(fast.primitive_order, slow.primitive_order)
        assert fast.num_nodes == slow.num_nodes
        for (fast_range, fast_low, fast_high), (slow_range, slow_low, slow_high) in zip(
            _depth_first(fast), _depth_first(slow)
        ):
            assert fast_range == slow_range
            assert np.array_equal(fast_low, slow_low) and np.array_equal(fast_high, slow_high)
        assert fast.validate(mesh)
        assert fast._max_depth is not None and slow._max_depth is None  # recorded vs walked
        assert fast.max_depth() == slow.max_depth()

    @pytest.mark.parametrize("method", ["lbvh", "sah"])
    def test_containment_invariant(self, small_surface, method):
        bvh = build_bvh(small_surface, leaf_size=4, method=method)
        assert bvh.validate(small_surface)

    @pytest.mark.parametrize("method", ["lbvh", "sah"])
    def test_random_soup_containment(self, rng, method):
        mesh = _random_triangle_soup(rng, 50)
        bvh = build_bvh(mesh, leaf_size=2, method=method)
        assert bvh.validate(mesh)
        assert bvh.num_primitives == 50

    def test_leaf_size_respected(self, small_surface):
        bvh = build_bvh(small_surface, leaf_size=2)
        leaves = bvh.primitive_count[bvh.primitive_count > 0]
        assert leaves.max() <= 2

    def test_single_triangle(self):
        mesh = TriangleMesh(np.eye(3), np.array([[0, 1, 2]]))
        bvh = build_bvh(mesh)
        assert bvh.num_nodes == 1
        assert bvh.is_leaf(0)

    def test_invalid_inputs(self, small_surface):
        with pytest.raises(ValueError):
            build_bvh(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)))
        with pytest.raises(ValueError):
            build_bvh(small_surface, leaf_size=0)
        with pytest.raises(ValueError):
            build_bvh(small_surface, method="nope")

    def test_sah_not_deeper_than_worst_case(self, small_surface):
        bvh = build_bvh(small_surface, method="sah")
        assert bvh.max_depth() <= small_surface.num_triangles


class TestIntersection:
    def test_moller_trumbore_hit_and_miss(self):
        v0, v1, v2 = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        origin = np.array([[0.25, 0.25, 1.0], [2.0, 2.0, 1.0]])
        direction = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, -1.0]])
        hit, t, u, v = moller_trumbore(origin, direction, v0, v1, v2)
        assert hit.tolist() == [True, False]
        assert t[0] == pytest.approx(1.0)
        assert u[0] + v[0] <= 1.0

    def test_moller_trumbore_parallel_ray(self):
        v0, v1, v2 = np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        hit, t, _, _ = moller_trumbore(
            np.array([[0.0, 0.0, 1.0]]), np.array([[1.0, 0.0, 0.0]]), v0, v1, v2
        )
        assert not hit[0]
        assert np.isinf(t[0])

    def test_ray_aabb(self):
        origins = np.array([[0.0, 0.0, -5.0], [5.0, 5.0, -5.0]])
        inv_dirs = 1.0 / np.array([[1e-12, 1e-12, 1.0], [1e-12, 1e-12, 1.0]])
        hit = ray_aabb_intersect(
            origins, inv_dirs, np.zeros(3) - 1.0, np.zeros(3) + 1.0, np.zeros(2), np.full(2, np.inf)
        )
        assert hit.tolist() == [True, False]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_bvh_matches_brute_force(self, small_surface, small_camera, seed):
        rng = np.random.default_rng(seed)
        pixel_ids = rng.integers(0, small_camera.width * small_camera.height, size=40)
        origins, directions = small_camera.generate_rays(pixel_ids)
        bvh = build_bvh(small_surface)
        fast = closest_hit(bvh, small_surface, origins, directions)
        slow = brute_force_closest_hit(small_surface, origins, directions)
        assert np.array_equal(fast.hit_mask, slow.hit_mask)
        assert np.allclose(fast.t[fast.hit_mask], slow.t[slow.hit_mask], rtol=1e-9)

    def test_any_hit_consistent_with_closest_hit(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        record = closest_hit(bvh, small_surface, origins, directions)
        occluded = any_hit(bvh, small_surface, origins, directions)
        assert np.array_equal(occluded, record.hit_mask)

    def test_any_hit_distance_limit(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        none_occluded = any_hit(bvh, small_surface, origins, directions, t_max=1e-6)
        assert not none_occluded.any()

    def test_nodes_visited_positive_for_hits(self, small_surface, small_camera):
        origins, directions = small_camera.generate_rays()
        bvh = build_bvh(small_surface)
        record = closest_hit(bvh, small_surface, origins, directions)
        assert np.all(record.nodes_visited[record.hit_mask] >= 1)


class TestShading:
    def test_hemisphere_samples_in_hemisphere(self, rng):
        normals = rng.standard_normal((20, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        samples = hemisphere_samples(normals, 8, rng)
        assert samples.shape == (160, 3)
        dots = np.einsum("ij,ij->i", samples.reshape(20, 8, 3).reshape(-1, 3), np.repeat(normals, 8, axis=0))
        assert np.all(dots > -1e-9)
        assert np.allclose(np.linalg.norm(samples, axis=1), 1.0)

    def test_hemisphere_samples_validation(self, rng):
        with pytest.raises(ValueError):
            hemisphere_samples(np.ones((2, 3)), 0, rng)

    def test_occlusion_to_ambient(self):
        occluded = np.array([True, True, False, False, False, False, False, False])
        ambient = occlusion_to_ambient(occluded, 4)
        assert ambient.tolist() == [0.5, 1.0]

    def test_scene_defaults(self, small_surface):
        scene = Scene(small_surface)
        assert len(scene.lights) == 1
        assert scene.scalar_range is not None
        colors = scene.vertex_colors()
        assert colors.shape == (small_surface.num_vertices, 3)
        assert colors.min() >= 0.0 and colors.max() <= 1.0

    def test_light_and_material_validation(self):
        with pytest.raises(ValueError):
            Light(np.zeros(2))
        with pytest.raises(ValueError):
            Light(np.zeros(3), intensity=100.0)
        assert Material().shininess > 0


class TestPipeline:
    @pytest.mark.parametrize("workload", [Workload.INTERSECTION_ONLY, Workload.SHADING, Workload.FULL])
    def test_workloads_render(self, small_scene, small_camera, workload):
        tracer = RayTracer(small_scene, RayTracerConfig(workload=workload, ao_samples=2))
        result = tracer.render(small_camera)
        assert result.technique == "raytrace"
        assert result.features.objects == small_scene.num_triangles
        assert 0 < result.features.active_pixels <= small_camera.width * small_camera.height
        assert result.framebuffer.active_pixels() > 0
        assert "trace" in result.phase_seconds
        assert result.total_seconds > 0

    def test_full_workload_adds_phases(self, small_scene, small_camera):
        tracer = RayTracer(small_scene, RayTracerConfig(workload=Workload.FULL, ao_samples=2))
        result = tracer.render(small_camera)
        assert "ambient_occlusion" in result.phase_seconds
        assert "shadows" in result.phase_seconds
        assert "compaction" in result.phase_seconds

    def test_bvh_cached_across_renders(self, small_scene, small_camera):
        tracer = RayTracer(small_scene, RayTracerConfig(workload=Workload.SHADING))
        first = tracer.render(small_camera)
        second = tracer.render(small_camera)
        assert first.phase_seconds["bvh_build"] == second.phase_seconds["bvh_build"]
        assert second.seconds_excluding("bvh_build") < second.total_seconds

    def test_shading_images_differ_from_depth_images(self, small_scene, small_camera):
        flat = RayTracer(small_scene, RayTracerConfig(workload=Workload.INTERSECTION_ONLY)).render(small_camera)
        shaded = RayTracer(small_scene, RayTracerConfig(workload=Workload.SHADING)).render(small_camera)
        assert not np.allclose(flat.framebuffer.rgba, shaded.framebuffer.rgba)

    def test_supersampling_covers_same_pixels(self, small_scene, small_camera):
        plain = RayTracer(small_scene, RayTracerConfig(workload=Workload.SHADING, supersample=1)).render(small_camera)
        anti = RayTracer(small_scene, RayTracerConfig(workload=Workload.SHADING, supersample=4)).render(small_camera)
        # Anti-aliasing may add boundary pixels but should not lose interior coverage.
        assert anti.features.active_pixels >= 0.9 * plain.features.active_pixels

    def test_reflections_option(self, small_scene, small_camera):
        config = RayTracerConfig(workload=Workload.SHADING, reflections=True)
        result = RayTracer(small_scene, config).render(small_camera)
        assert "reflections" in result.phase_seconds

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RayTracerConfig(supersample=3)
        with pytest.raises(ValueError):
            RayTracerConfig(ao_samples=0)
        assert RayTracerConfig(workload=2).workload is Workload.SHADING

    def test_empty_scene_hits_nothing(self, small_camera):
        # A distant tiny triangle that the camera does not see.
        mesh = TriangleMesh(np.eye(3) * 1e-6 + 1e6, np.array([[0, 1, 2]]))
        result = RayTracer(Scene(mesh), RayTracerConfig(workload=Workload.SHADING)).render(small_camera)
        assert result.features.active_pixels == 0

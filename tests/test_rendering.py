"""Tests for color tables, framebuffers, the rasterizer, volume renderers, and baselines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Camera, tetrahedralize_uniform_grid
from repro.geometry.mesh import UniformGrid
from repro.geometry.triangles import external_faces
from repro.rendering import (
    ColorTable,
    Framebuffer,
    Rasterizer,
    RayTracer,
    RayTracerConfig,
    Scene,
    StructuredVolumeConfig,
    StructuredVolumeRenderer,
    TransferFunction,
    UnstructuredVolumeConfig,
    UnstructuredVolumeRenderer,
    Workload,
    normalize_scalars,
)
from repro.rendering.baselines import (
    ConnectivityRayCaster,
    ProjectedTetrahedraRenderer,
    SpecializedRayTracer,
    VisItStyleSampler,
)
from repro.rendering.rasterizer import raster
from repro.runtime.decomposition import BlockDecomposition
from repro.simulations.fields import get_simulation_field


class TestColor:
    def test_normalize_scalars(self):
        normalized = normalize_scalars(np.array([0.0, 5.0, 10.0]))
        assert normalized.tolist() == [0.0, 0.5, 1.0]
        assert np.all(normalize_scalars(np.array([3.0, 3.0])) == 0.5)
        clamped = normalize_scalars(np.array([-1.0, 11.0]), 0.0, 10.0)
        assert clamped.tolist() == [0.0, 1.0]

    def test_color_table_lookup(self):
        table = ColorTable("cool-to-warm", samples=16)
        colors = table.map(np.array([0.0, 0.5, 1.0]))
        assert colors.shape == (3, 3)
        assert np.all((colors >= 0.0) & (colors <= 1.0))
        # End points should differ for a diverging table.
        assert not np.allclose(colors[0], colors[2])

    def test_color_table_validation(self):
        with pytest.raises(KeyError):
            ColorTable("nope")
        with pytest.raises(ValueError):
            ColorTable(samples=1)
        assert "rainbow" in ColorTable.available()

    def test_transfer_function_opacity_correction(self):
        tf = TransferFunction(scalar_range=(0.0, 1.0), unit_distance=1.0)
        raw = tf.opacity(np.array([1.0]))
        corrected_small_step = tf.opacity(np.array([1.0]), step_length=0.1)
        assert corrected_small_step[0] < raw[0]
        rgb, alpha = tf.sample(np.array([0.0, 1.0]), step_length=0.5)
        assert rgb.shape == (2, 3)
        assert alpha[0] <= alpha[1]

    def test_transfer_function_validation(self):
        with pytest.raises(ValueError):
            TransferFunction(opacity_points=[(0.0, 0.1)])
        with pytest.raises(ValueError):
            TransferFunction(unit_distance=0.0)


class TestFramebuffer:
    def test_clear_and_active_pixels(self):
        fb = Framebuffer(4, 3)
        assert fb.active_pixels() == 0
        fb.write_pixels(np.array([0, 5]), np.array([[1, 0, 0, 1], [0, 1, 0, 1]], dtype=float), np.array([1.0, 2.0]))
        assert fb.active_pixels() == 2
        fb.clear()
        assert fb.active_pixels() == 0

    def test_depth_composite_prefers_nearer(self):
        a, b = Framebuffer(2, 1), Framebuffer(2, 1)
        a.write_pixels(np.array([0]), np.array([[1.0, 0, 0, 1]]), np.array([1.0]))
        b.write_pixels(np.array([0]), np.array([[0, 1.0, 0, 1]]), np.array([2.0]))
        merged = a.depth_composite(b)
        assert merged.rgba[0, 0, 0] == 1.0
        assert merged.depth[0, 0] == 1.0

    def test_to_rgb8_range(self):
        fb = Framebuffer(2, 2)
        fb.rgba[..., :3] = 0.5
        fb.rgba[..., 3] = 1.0
        rgb = fb.to_rgb8()
        assert rgb.dtype == np.uint8
        assert rgb.max() <= 255

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            Framebuffer(0, 3)
        with pytest.raises(ValueError):
            Framebuffer(2, 2).depth_composite(Framebuffer(3, 3))


class TestRasterizer:
    def test_render_reports_features(self, small_scene, small_camera):
        result = Rasterizer(small_scene).render(small_camera)
        assert result.technique == "raster"
        assert result.features.objects == small_scene.num_triangles
        assert result.features.visible_objects > 0
        assert result.features.pixels_per_triangle > 0
        assert result.features.active_pixels > 0

    def test_raster_and_raytrace_cover_similar_pixels(self, small_scene, small_camera):
        raster = Rasterizer(small_scene).render(small_camera)
        trace = RayTracer(small_scene, RayTracerConfig(workload=Workload.SHADING)).render(small_camera)
        raster_mask = np.isfinite(raster.framebuffer.depth)
        trace_mask = np.isfinite(trace.framebuffer.depth)
        overlap = np.count_nonzero(raster_mask & trace_mask)
        union = np.count_nonzero(raster_mask | trace_mask)
        assert overlap / union > 0.7

    def test_depth_test_keeps_nearest(self, small_camera):
        # Two parallel quads; the nearer (to the camera at +z) must win.
        def quad(z):
            return np.array([[-1, -1, z], [1, -1, z], [1, 1, z], [-1, 1, z]], dtype=float)

        vertices = np.vstack([quad(0.0), quad(1.0)])
        triangles = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]])
        scalars = np.array([0.0] * 4 + [1.0] * 4)
        from repro.geometry import TriangleMesh

        mesh = TriangleMesh(vertices, triangles, scalars)
        camera = Camera(position=np.array([0.0, 0.0, 5.0]), look_at=np.zeros(3), width=33, height=33)
        result = Rasterizer(Scene(mesh)).render(camera)
        center_depth = result.framebuffer.depth[16, 16]
        assert np.isfinite(center_depth)
        # The near quad is at z=1 (distance 4); the far quad at z=0 (distance 5).
        near_expected, _ = camera.world_to_screen(np.array([[0.0, 0.0, 1.0]]))
        assert center_depth == pytest.approx(near_expected[0, 2], abs=1e-6)

    def test_empty_mesh(self, small_camera):
        from repro.geometry import TriangleMesh

        empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        result = Rasterizer(Scene(empty)).render(small_camera)
        assert result.features.active_pixels == 0

    def test_chunking_gives_same_image(self, small_scene, small_camera, monkeypatch):
        monkeypatch.setattr(raster, "PAIR_CHUNK", 10_000_000)
        whole = Rasterizer(small_scene).render(small_camera)
        monkeypatch.setattr(raster, "PAIR_CHUNK", 500)
        chunked = Rasterizer(small_scene).render(small_camera)
        assert np.allclose(whole.framebuffer.depth, chunked.framebuffer.depth, equal_nan=True)
        assert np.allclose(whole.framebuffer.rgba, chunked.framebuffer.rgba)

    def test_triangles_draw_double_sided(self, small_scene, small_camera):
        # Isosurface windings are not oriented toward the camera, so reversing
        # every triangle must draw the same pixels at the same depths.
        mesh = small_scene.mesh
        flipped = type(mesh)(mesh.vertices, mesh.triangles[:, ::-1].copy(), mesh.scalars)
        front = Rasterizer(small_scene).render(small_camera)
        back = Rasterizer(Scene(flipped)).render(small_camera)
        assert back.features.visible_objects == front.features.visible_objects
        assert back.features.active_pixels == front.features.active_pixels > 0
        assert np.allclose(back.framebuffer.depth, front.framebuffer.depth, equal_nan=True)
        assert np.allclose(back.framebuffer.rgba, front.framebuffer.rgba)


class TestCrossFamily:
    """An object-order and an image-order renderer draw one scene the same way up."""

    #: Pixels the two coverage tests may disagree on: only a silhouette pixel
    #: whose center grazes an edge can fall either way (none do in these views).
    SILHOUETTE_PIXELS = 2

    @pytest.mark.parametrize(
        "tasks, rank", [(1, 0), (8, 0), (8, 7)], ids=["one-block", "first-of-8", "last-of-8"]
    )
    def test_raster_and_raytrace_coverage_agree(self, small_scene, tasks, rank):
        # One opaque mesh: a decomposed block's external faces framed as the
        # study frames them, and the isosurface from an oblique orbit.
        decomposition = BlockDecomposition(tasks, 6)
        block = decomposition.block_grid_with_field(rank, "scalar", get_simulation_field("cloverleaf"))
        orbit = 75.0 * (rank + 1)
        scenes = [
            (
                Scene(external_faces(block, scalar_field="scalar")),
                Camera.framing_bounds(decomposition.global_bounds, 48, 40),
            ),
            (small_scene, Camera.framing_bounds(small_scene.mesh.bounds, 41, 33, azimuth_degrees=orbit)),
        ]
        for scene, camera in scenes:
            raster = Rasterizer(scene).render(camera).framebuffer
            trace = RayTracer(scene, RayTracerConfig(workload=Workload.SHADING)).render(camera).framebuffer
            raster_mask, trace_mask = raster.rgba[..., 3] > 0.0, trace.rgba[..., 3] > 0.0
            assert np.count_nonzero(raster_mask) > 40
            assert np.count_nonzero(raster_mask != trace_mask) <= self.SILHOUETTE_PIXELS


class TestStructuredVolume:
    def test_render_features_and_opacity(self, blob_grid):
        camera = Camera.framing_bounds(blob_grid.bounds, 40, 40, zoom=1.2)
        renderer = StructuredVolumeRenderer(blob_grid, "density")
        result = renderer.render(camera)
        assert result.technique == "volume"
        assert result.features.objects == blob_grid.num_cells
        assert result.features.active_pixels > 0
        assert result.features.samples_per_ray > 0
        assert result.features.cells_spanned == max(blob_grid.cell_dims)
        alpha = result.framebuffer.rgba[..., 3]
        assert alpha.max() <= 1.0 + 1e-12
        assert alpha.max() > 0.0

    def test_more_samples_changes_little(self, blob_grid):
        camera = Camera.framing_bounds(blob_grid.bounds, 32, 32, zoom=1.2)
        coarse = StructuredVolumeRenderer(blob_grid, "density", config=StructuredVolumeConfig(samples_in_depth=50)).render(camera)
        fine = StructuredVolumeRenderer(blob_grid, "density", config=StructuredVolumeConfig(samples_in_depth=200)).render(camera)
        mask = np.isfinite(coarse.framebuffer.depth) & np.isfinite(fine.framebuffer.depth)
        assert mask.sum() > 0
        difference = np.abs(coarse.framebuffer.rgba[mask] - fine.framebuffer.rgba[mask]).mean()
        assert difference < 0.12

    def test_early_termination_reduces_samples(self, blob_grid):
        camera = Camera.framing_bounds(blob_grid.bounds, 32, 32, zoom=1.5)
        eager = StructuredVolumeRenderer(
            blob_grid, "density", config=StructuredVolumeConfig(early_termination_alpha=0.3)
        ).render(camera)
        patient = StructuredVolumeRenderer(
            blob_grid, "density", config=StructuredVolumeConfig(early_termination_alpha=1.0)
        ).render(camera)
        assert eager.features.samples_per_ray <= patient.features.samples_per_ray

    def test_camera_outside_sees_nothing(self, blob_grid):
        camera = Camera(
            position=np.array([100.0, 100.0, 100.0]),
            look_at=np.array([200.0, 200.0, 200.0]),
            width=16,
            height=16,
        )
        result = StructuredVolumeRenderer(blob_grid, "density").render(camera)
        assert result.features.active_pixels == 0

    def test_missing_field_raises(self, blob_grid):
        with pytest.raises(KeyError):
            StructuredVolumeRenderer(blob_grid, "nope")

    def test_trilinear_matches_field_at_points(self, blob_grid):
        renderer = StructuredVolumeRenderer(blob_grid, "density")
        points = blob_grid.points()[::37]
        expected = np.asarray(blob_grid.point_fields["density"])[::37]
        assert np.allclose(renderer._trilinear(points), expected, atol=1e-9)


class TestUnstructuredVolume:
    def test_render_and_passes_agree(self, small_tets):
        camera = Camera.framing_bounds(small_tets.bounds, 36, 36, zoom=1.2)
        single = UnstructuredVolumeRenderer(
            small_tets, "density", config=UnstructuredVolumeConfig(samples_in_depth=60, num_passes=1, early_termination_alpha=1.0)
        ).render(camera)
        multi = UnstructuredVolumeRenderer(
            small_tets, "density", config=UnstructuredVolumeConfig(samples_in_depth=60, num_passes=3, early_termination_alpha=1.0)
        ).render(camera)
        assert single.technique == "volume_unstructured"
        assert single.features.active_pixels > 0
        # The multi-pass result must match the single-pass result.
        assert np.allclose(single.framebuffer.rgba, multi.framebuffer.rgba, atol=1e-9)

    def test_phases_reported(self, small_tets):
        camera = Camera.framing_bounds(small_tets.bounds, 24, 24)
        result = UnstructuredVolumeRenderer(
            small_tets, "density", config=UnstructuredVolumeConfig(samples_in_depth=40)
        ).render(camera)
        for phase in ("initialization", "pass_selection", "screen_space", "sampling", "compositing"):
            assert phase in result.phase_seconds

    def test_structured_and_unstructured_roughly_agree(self, blob_grid, small_tets):
        camera = Camera.framing_bounds(blob_grid.bounds, 40, 40, zoom=1.2)
        structured = StructuredVolumeRenderer(
            blob_grid, "density", config=StructuredVolumeConfig(samples_in_depth=80)
        ).render(camera)
        unstructured = UnstructuredVolumeRenderer(
            small_tets, "density", config=UnstructuredVolumeConfig(samples_in_depth=80)
        ).render(camera)
        a = structured.framebuffer.rgba[..., 3].ravel()
        b = unstructured.framebuffer.rgba[..., 3].ravel()
        assert np.corrcoef(a, b)[0, 1] > 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UnstructuredVolumeConfig(samples_in_depth=0)
        with pytest.raises(ValueError):
            UnstructuredVolumeConfig(num_passes=0)
        with pytest.raises(ValueError):
            UnstructuredVolumeConfig(early_termination_alpha=0.0)

    @pytest.mark.parametrize(
        "config, field, value",
        [
            (StructuredVolumeConfig, "samples_in_depth", 0),
            (StructuredVolumeConfig, "early_termination_alpha", 0.0),
            (StructuredVolumeConfig, "early_termination_alpha", 1.5),
            (UnstructuredVolumeConfig, "samples_in_depth", 0),
            (UnstructuredVolumeConfig, "num_passes", 0),
            (UnstructuredVolumeConfig, "early_termination_alpha", 0.0),
            (UnstructuredVolumeConfig, "early_termination_alpha", 1.5),
        ],
    )
    def test_config_rejects_out_of_range_field(self, config, field, value):
        # samples_in_depth=0 used to divide by zero inside render.
        with pytest.raises(ValueError, match=field):
            config(**{field: value})

    def test_missing_field_raises(self, small_tets):
        with pytest.raises(KeyError):
            UnstructuredVolumeRenderer(small_tets, "nope")


class TestBaselines:
    def test_specialized_ray_tracer_faster_or_close(self, small_scene, small_camera):
        specialized = SpecializedRayTracer(small_scene)
        rays, seconds = specialized.trace(small_camera)
        assert rays == small_camera.width * small_camera.height
        assert seconds > 0
        assert specialized.rays_per_second(small_camera) > 0

    def test_projected_tetrahedra(self, small_tets, blob_grid):
        camera = Camera.framing_bounds(blob_grid.bounds, 32, 32, zoom=1.2)
        result = ProjectedTetrahedraRenderer(small_tets, "density").render(camera)
        assert result.technique == "havs_proxy"
        assert result.features.active_pixels > 0
        assert "sort" in result.phase_seconds and "rasterize" in result.phase_seconds

    def test_connectivity_ray_caster(self, small_tets, blob_grid):
        camera = Camera.framing_bounds(blob_grid.bounds, 32, 32, zoom=1.2)
        caster = ConnectivityRayCaster(small_tets, "density", samples_in_depth=40)
        result = caster.render(camera)
        assert result.technique == "bunyk_proxy"
        assert caster.preprocess_seconds > 0.0
        assert result.features.active_pixels > 0

    def test_visit_style_sampler(self, small_tets, blob_grid):
        camera = Camera.framing_bounds(blob_grid.bounds, 24, 24, zoom=1.2)
        result = VisItStyleSampler(small_tets, "density", samples_in_depth=40).render(camera)
        assert result.technique == "visit_proxy"
        assert result.features.active_pixels > 0

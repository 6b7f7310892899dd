"""Tests for the geometry substrate: meshes, AABBs, transforms, extraction filters."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    AABB,
    Camera,
    RectilinearGrid,
    StructuredGrid,
    TriangleMesh,
    UniformGrid,
    UnstructuredHexMesh,
    UnstructuredTetMesh,
    aabb_union,
    external_faces,
    hex_to_tets,
    isosurface_marching_tets,
    make_named_dataset,
    quad_to_triangles,
    tetrahedralize_uniform_grid,
    triangle_aabbs,
)
from repro.geometry.aabb import points_aabb
from repro.geometry.transforms import look_at_matrix, perspective_matrix, project_points


class TestAABB:
    def test_properties(self):
        box = AABB(np.zeros(3), np.array([1.0, 2.0, 3.0]))
        assert box.extent.tolist() == [1.0, 2.0, 3.0]
        assert box.center.tolist() == [0.5, 1.0, 1.5]
        assert box.surface_area == pytest.approx(2 * (1 * 2 + 2 * 3 + 3 * 1))
        assert box.diagonal == pytest.approx(np.sqrt(14.0))
        assert box.is_valid()

    def test_contains_and_union(self):
        a = AABB(np.zeros(3), np.ones(3))
        b = AABB(np.ones(3) * 2, np.ones(3) * 3)
        union = a.union(b)
        assert union.contains_points(np.array([[0.5, 0.5, 0.5], [2.5, 2.5, 2.5]])).all()
        assert not a.contains_points(np.array([[1.5, 0.5, 0.5]]))[0]
        assert aabb_union([a, b]).extent.tolist() == union.extent.tolist()

    def test_expanded(self):
        box = AABB(np.zeros(3), np.ones(3)).expanded(0.5)
        assert box.low.tolist() == [-0.5, -0.5, -0.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            AABB(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            aabb_union([])
        with pytest.raises(ValueError):
            points_aabb(np.zeros((0, 3)))

    def test_triangle_aabbs_contain_corners(self, rng):
        vertices = rng.random((30, 3))
        triangles = rng.integers(0, 30, size=(20, 3))
        lows, highs = triangle_aabbs(vertices, triangles)
        corners = vertices[triangles]
        assert np.all(corners >= lows[:, None, :] - 1e-12)
        assert np.all(corners <= highs[:, None, :] + 1e-12)


class TestGrids:
    def test_uniform_grid_counts_and_bounds(self):
        grid = UniformGrid((3, 4, 5), origin=(1, 2, 3), spacing=(0.5, 1.0, 2.0))
        assert grid.num_points == 3 * 4 * 5
        assert grid.num_cells == 2 * 3 * 4
        assert grid.bounds.low.tolist() == [1, 2, 3]
        assert grid.bounds.high.tolist() == [1 + 1.0, 2 + 3.0, 3 + 8.0]
        assert grid.points().shape == (grid.num_points, 3)
        assert grid.cell_centers().shape == (grid.num_cells, 3)

    def test_uniform_grid_validation(self):
        with pytest.raises(ValueError):
            UniformGrid((1, 2, 2))
        with pytest.raises(ValueError):
            UniformGrid((2, 2, 2), spacing=(0, 1, 1))

    def test_field_management(self):
        grid = UniformGrid((3, 3, 3))
        grid.add_point_field("f", np.arange(27))
        grid.add_cell_field("g", np.arange(8))
        assert grid.field("f")[0] == "point"
        assert grid.field("g")[0] == "cell"
        with pytest.raises(ValueError):
            grid.add_point_field("bad", np.arange(5))
        with pytest.raises(KeyError):
            grid.field("missing")

    def test_point_field_as_volume_layout(self):
        grid = UniformGrid((3, 4, 5))
        grid.add_point_field("f", np.arange(grid.num_points, dtype=float))
        volume = grid.point_field_as_volume("f")
        assert volume.shape == (5, 4, 3)
        # x is the fastest-varying index.
        assert volume[0, 0, 1] - volume[0, 0, 0] == 1.0

    def test_rectilinear_grid(self):
        grid = RectilinearGrid(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0]), np.array([0.0, 1.0, 2.0]))
        assert grid.num_cells == 2 * 1 * 2
        assert grid.bounds.high.tolist() == [3.0, 2.0, 2.0]
        resampled = grid.to_uniform_resampled()
        assert isinstance(resampled, UniformGrid)
        assert resampled.dims == grid.dims

    def test_rectilinear_validation(self):
        with pytest.raises(ValueError):
            RectilinearGrid(np.array([0.0, -1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_structured_grid(self):
        base = UniformGrid((3, 3, 3))
        grid = StructuredGrid((3, 3, 3), base.points())
        assert grid.num_cells == 8
        assert grid.cell_centers().shape == (8, 3)

    def test_hex_connectivity_references_valid_points(self):
        grid = UniformGrid((4, 3, 3))
        connectivity = grid.cell_connectivity()
        assert connectivity.shape == (grid.num_cells, 8)
        assert connectivity.min() >= 0
        assert connectivity.max() < grid.num_points
        # Each hex has 8 distinct corners.
        assert all(len(set(row)) == 8 for row in connectivity.tolist())

    def test_unstructured_hex_from_structured(self):
        grid = UniformGrid((3, 3, 3))
        grid.add_point_field("f", np.arange(27))
        mesh = UnstructuredHexMesh.from_structured(grid)
        assert mesh.num_cells == grid.num_cells
        assert "f" in mesh.point_fields
        with pytest.raises(IndexError):
            UnstructuredHexMesh(mesh.points(), np.full((1, 8), 999))

    def test_tet_mesh_volumes(self):
        grid = UniformGrid((3, 3, 3))
        tets = tetrahedralize_uniform_grid(grid)
        assert isinstance(tets, UnstructuredTetMesh)
        assert tets.num_cells == grid.num_cells * 5
        # The five-tet decomposition exactly fills the grid volume.
        assert np.abs(tets.cell_volumes()).sum() == pytest.approx(np.prod(grid.bounds.extent))


class TestTriangles:
    def test_quad_to_triangles(self):
        quads = np.array([[0, 1, 2, 3]])
        triangles = quad_to_triangles(quads)
        assert triangles.tolist() == [[0, 1, 2], [0, 2, 3]]
        with pytest.raises(ValueError):
            quad_to_triangles(np.array([[0, 1, 2]]))

    def test_external_faces_counts(self):
        grid = UniformGrid((5, 5, 5))
        grid.add_point_field("f", np.arange(grid.num_points, dtype=float))
        surface = external_faces(grid, scalar_field="f")
        # 6 faces x 4x4 quads x 2 triangles.
        assert surface.num_triangles == 6 * 16 * 2
        assert surface.scalars is not None
        assert surface.num_vertices <= grid.num_points

    def test_external_faces_cell_field_averaged(self):
        grid = UniformGrid((4, 4, 4))
        grid.add_cell_field("c", np.arange(grid.num_cells, dtype=float))
        surface = external_faces(grid, scalar_field="c")
        assert surface.scalars is not None
        assert len(surface.scalars) == surface.num_vertices

    @pytest.mark.parametrize("cell_dims", [(1, 1, 1), (1, 3, 5), (7, 2, 1), (17, 17, 17)])
    @pytest.mark.parametrize("kind", ["uniform", "rectilinear", "structured"])
    def test_structured_boundary_equals_the_shared_face_search(self, kind, cell_dims):
        # A structured grid's boundary is written down from its dimensions;
        # the same grid as an explicit hex mesh goes through the face sort.
        rng = np.random.default_rng(sum(cell_dims))
        dims = tuple(cells + 1 for cells in cell_dims)
        uniform = UniformGrid(dims, origin=(0.5, -1.0, 2.0), spacing=(0.25, 1.0, 0.5))
        grid = {
            "uniform": uniform,
            "rectilinear": RectilinearGrid(*(np.cumsum(rng.uniform(0.1, 1.0, n)) for n in dims)),
            "structured": StructuredGrid(
                dims, uniform.points() + rng.normal(scale=0.02, size=(uniform.num_points, 3))
            ),
        }[kind]
        grid.add_point_field("p", rng.random(grid.num_points))
        grid.add_cell_field("c", rng.random(grid.num_cells))
        explicit = UnstructuredHexMesh.from_structured(grid)
        for field in ("p", "c"):
            fast = external_faces(grid, scalar_field=field)
            slow = external_faces(explicit, scalar_field=field)
            assert fast.vertices.tobytes() == slow.vertices.tobytes()
            assert fast.triangles.tobytes() == slow.triangles.tobytes()
            assert fast.scalars.tobytes() == slow.scalars.tobytes()

    def test_triangle_mesh_quantities(self, small_surface):
        normals = small_surface.normals()
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9)
        assert np.all(small_surface.areas() >= 0.0)
        vertex_normals = small_surface.vertex_normals()
        assert vertex_normals.shape == (small_surface.num_vertices, 3)
        centroids = small_surface.centroids()
        assert small_surface.bounds.contains_points(centroids, tol=1e-9).all()

    def test_triangle_mesh_validation(self):
        with pytest.raises(IndexError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]), scalars=np.zeros(2))

    def test_concatenate(self, small_surface):
        combined = small_surface.concatenate(small_surface)
        assert combined.num_triangles == 2 * small_surface.num_triangles
        assert combined.num_vertices == 2 * small_surface.num_vertices


class TestTetrahedra:
    def test_hex_to_tets_field_transfer(self):
        grid = UniformGrid((3, 3, 3))
        grid.add_point_field("p", np.arange(27, dtype=float))
        grid.add_cell_field("c", np.arange(8, dtype=float))
        mesh = UnstructuredHexMesh.from_structured(grid)
        tets = hex_to_tets(mesh)
        assert tets.num_cells == 8 * 5
        assert len(tets.cell_fields["c"]) == tets.num_cells
        assert np.array_equal(tets.point_fields["p"], mesh.point_fields["p"])

    def test_hex_to_tets_parity_validation(self):
        grid = UniformGrid((3, 3, 3))
        mesh = UnstructuredHexMesh.from_structured(grid)
        with pytest.raises(ValueError):
            hex_to_tets(mesh, parity=np.zeros(3, dtype=bool))

    @given(st.integers(2, 4))
    @settings(max_examples=6, deadline=None)
    def test_tetrahedralization_fills_volume(self, n):
        grid = UniformGrid((n + 1, n + 1, n + 1))
        tets = tetrahedralize_uniform_grid(grid)
        assert np.abs(tets.cell_volumes()).sum() == pytest.approx(float(n**3) * (1.0**3))


class TestIsosurface:
    def test_isosurface_on_linear_field_is_planar(self):
        grid = UniformGrid((9, 9, 9), spacing=(1 / 8, 1 / 8, 1 / 8))
        points = grid.points()
        grid.add_point_field("x", points[:, 0])
        surface = isosurface_marching_tets(grid, "x", 0.5)
        assert surface.num_triangles > 0
        # Every generated vertex lies on the x = 0.5 plane.
        assert np.allclose(surface.vertices[:, 0], 0.5, atol=1e-9)

    def test_isosurface_empty_outside_range(self, small_grid):
        surface = isosurface_marching_tets(small_grid, "density", 1e9)
        assert surface.num_triangles == 0

    def test_isosurface_vertices_inside_grid(self, small_grid):
        surface = isosurface_marching_tets(small_grid, "density", 0.5)
        assert small_grid.bounds.contains_points(surface.vertices, tol=1e-9).all()

    def test_isosurface_missing_field(self, small_grid):
        with pytest.raises(KeyError):
            isosurface_marching_tets(small_grid, "nope", 0.5)


class TestCamera:
    def test_rays_normalized_and_through_bounds(self, small_surface):
        camera = Camera.framing_bounds(small_surface.bounds, 32, 32)
        origins, directions = camera.generate_rays()
        assert origins.shape == directions.shape == (32 * 32, 3)
        assert np.allclose(np.linalg.norm(directions, axis=1), 1.0)
        # The central ray should point roughly toward the bounds center.
        center_ray = directions[32 * 16 + 16]
        to_center = small_surface.bounds.center - camera.position
        to_center /= np.linalg.norm(to_center)
        assert np.dot(center_ray, to_center) > 0.95

    def test_world_to_screen_roundtrip_center(self):
        camera = Camera(position=np.array([0.0, 0.0, 5.0]), look_at=np.zeros(3), width=100, height=100)
        screen, w = camera.world_to_screen(np.array([[0.0, 0.0, 0.0]]))
        assert w[0] > 0
        assert screen[0, 0] == pytest.approx(50.0, abs=1e-6)
        assert screen[0, 1] == pytest.approx(50.0, abs=1e-6)

    def test_points_behind_camera_flagged(self):
        camera = Camera(position=np.array([0.0, 0.0, 5.0]), look_at=np.zeros(3))
        _, w = camera.world_to_screen(np.array([[0.0, 0.0, 10.0]]))
        assert w[0] < 0

    def test_depth_along_view_monotonic(self):
        camera = Camera(position=np.array([0.0, 0.0, 5.0]), look_at=np.zeros(3))
        depths = camera.depth_along_view(np.array([[0.0, 0.0, 4.0], [0.0, 0.0, 0.0], [0.0, 0.0, -4.0]]))
        assert depths[0] < depths[1] < depths[2]

    def test_zoom_changes_distance(self, small_surface):
        near = Camera.framing_bounds(small_surface.bounds, 32, 32, zoom=2.0)
        far = Camera.framing_bounds(small_surface.bounds, 32, 32, zoom=0.5)
        center = small_surface.bounds.center
        assert np.linalg.norm(near.position - center) < np.linalg.norm(far.position - center)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            perspective_matrix(0.0, 1.0, 0.1, 10.0)
        with pytest.raises(ValueError):
            perspective_matrix(45.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            Camera(width=0, height=10)

    def test_look_at_orthonormal(self):
        view = look_at_matrix(np.array([1.0, 2.0, 3.0]), np.zeros(3), np.array([0.0, 1.0, 0.0]))
        rotation = view[:3, :3]
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-12)

    def test_project_points_zero_w_guard(self):
        matrix = np.zeros((4, 4))
        projected, w = project_points(np.array([[1.0, 1.0, 1.0]]), matrix)
        assert np.all(np.isfinite(projected))


class TestDatasets:
    def test_named_datasets(self):
        for name in ("rm", "enzo", "nek5000", "lead-telluride", "seismic"):
            grid = make_named_dataset(name, (9, 9, 9), seed=1)
            assert grid.num_points == 9**3
            assert len(grid.point_fields) == 1
        with pytest.raises(KeyError):
            make_named_dataset("unknown", (9, 9, 9))

    def test_dataset_deterministic(self):
        a = make_named_dataset("enzo", (9, 9, 9), seed=5)
        b = make_named_dataset("enzo", (9, 9, 9), seed=5)
        field = next(iter(a.point_fields))
        assert np.array_equal(a.point_fields[field], b.point_fields[field])

    def test_dataset_seed_changes_field(self):
        a = make_named_dataset("rm", (9, 9, 9), seed=1)
        b = make_named_dataset("rm", (9, 9, 9), seed=2)
        assert not np.array_equal(a.point_fields["density"], b.point_fields["density"])

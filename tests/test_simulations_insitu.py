"""Tests for the proxy simulations, the Conduit-like tree, the blueprint, and Strawman."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.geometry.mesh import RectilinearGrid, UniformGrid, UnstructuredHexMesh
from repro.insitu import (
    ConduitNode,
    Strawman,
    StrawmanOptions,
    describe_simulation,
    mesh_to_node,
    node_to_mesh,
    validate_mesh_node,
    write_pgm,
    write_ppm,
)
from repro.insitu.imageio import read_ppm
from repro.rendering.framebuffer import Framebuffer
from repro.simulations import CloverleafProxy, KripkeProxy, LuleshProxy, create_proxy


class TestConduitNode:
    def test_path_creation_and_access(self):
        node = ConduitNode()
        node["state/cycle"] = 7
        node["fields/e/values"] = np.arange(4)
        assert node["state/cycle"] == 7
        assert np.array_equal(node["fields/e/values"], np.arange(4))
        assert node.has_path("fields/e")
        assert not node.has_path("fields/missing")
        assert sorted(node.child_names()) == ["fields", "state"]

    def test_set_copies_and_set_external_references(self):
        node = ConduitNode()
        data = np.arange(5)
        node.fetch("copied").set(data)
        node.fetch("external").set_external(data)
        data[0] = 99
        assert node["copied"][0] == 0
        assert node["external"][0] == 99
        assert node.fetch_existing("external").is_external
        assert not node.fetch_existing("copied").is_external

    def test_leaf_object_conflicts(self):
        node = ConduitNode()
        node["a/b"] = 1
        with pytest.raises(ValueError):
            node.fetch("a").set(5)
        with pytest.raises(ValueError):
            node.fetch("a/b/c")

    def test_append_and_iteration(self):
        actions = ConduitNode()
        first = actions.append()
        first["action"] = "AddPlot"
        second = actions.append()
        second["action"] = "DrawPlots"
        names = [child["action"] for _, child in actions.children()]
        assert names == ["AddPlot", "DrawPlots"]

    def test_total_bytes_and_yaml(self):
        node = ConduitNode()
        node["values"] = np.zeros(10, dtype=np.float64)
        node["label"] = "x"
        assert node.total_bytes() == 80
        rendered = node.to_yaml()
        assert "values" in rendered and "label" in rendered

    def test_fetch_existing_missing(self):
        with pytest.raises(KeyError):
            ConduitNode().fetch_existing("a/b")
        with pytest.raises(KeyError):
            ConduitNode().fetch("")


class TestBlueprint:
    def test_uniform_roundtrip(self):
        grid = UniformGrid((4, 4, 4), origin=(1, 2, 3), spacing=(0.5, 0.5, 0.5))
        grid.add_point_field("f", np.arange(grid.num_points, dtype=float))
        node = mesh_to_node(grid)
        assert validate_mesh_node(node) == []
        back = node_to_mesh(node)
        assert isinstance(back, UniformGrid)
        assert back.dims == grid.dims
        assert np.allclose(back.point_fields["f"], grid.point_fields["f"])

    def test_rectilinear_roundtrip(self):
        grid = RectilinearGrid(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        grid.add_cell_field("c", np.arange(grid.num_cells, dtype=float))
        back = node_to_mesh(mesh_to_node(grid))
        assert isinstance(back, RectilinearGrid)
        assert np.allclose(back.x, grid.x)
        assert np.allclose(back.cell_fields["c"], grid.cell_fields["c"])

    def test_unstructured_roundtrip_zero_copy(self):
        grid = UniformGrid((3, 3, 3))
        mesh = UnstructuredHexMesh.from_structured(grid)
        mesh.add_cell_field("e", np.arange(mesh.num_cells, dtype=float))
        node = mesh_to_node(mesh, zero_copy=True)
        # Zero copy: mutating the simulation's array is visible through the node.
        mesh.cell_fields["e"][0] = 123.0
        assert node["fields/e/values"][0] == 123.0
        back = node_to_mesh(node)
        assert isinstance(back, UnstructuredHexMesh)
        assert back.num_cells == mesh.num_cells

    def test_validation_reports_problems(self):
        node = ConduitNode()
        node["coords/type"] = "uniform"
        problems = validate_mesh_node(node)
        assert any("dims" in problem for problem in problems)
        node2 = ConduitNode()
        node2["coords/type"] = "banana"
        assert validate_mesh_node(node2)
        with pytest.raises(ValueError):
            node_to_mesh(node2)


class TestImageIO:
    def test_ppm_roundtrip(self, tmp_path):
        fb = Framebuffer(5, 4)
        fb.rgba[..., :3] = 0.25
        fb.rgba[..., 3] = 1.0
        path = write_ppm(tmp_path / "image.ppm", fb)
        pixels = read_ppm(path)
        assert pixels.shape == (4, 5, 3)
        assert np.all(np.abs(pixels.astype(int) - 64) <= 1)

    def test_pgm_normalization(self, tmp_path):
        path = write_pgm(tmp_path / "depth.pgm", np.array([[0.0, 1.0], [2.0, np.inf]]))
        assert os.path.getsize(path) > 0

    def test_ppm_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "bad.ppm", np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "bad.pgm", np.zeros(3))


class TestProxies:
    @pytest.mark.parametrize("name,cls", [("lulesh", LuleshProxy), ("kripke", KripkeProxy), ("cloverleaf", CloverleafProxy)])
    def test_factory_and_stepping(self, name, cls):
        proxy = create_proxy(name, 6, seed=3)
        assert isinstance(proxy, cls)
        elapsed = proxy.advance(2)
        assert proxy.cycle == 2
        assert proxy.time > 0
        assert elapsed >= 0
        mesh = proxy.mesh()
        assert proxy.primary_field in mesh.point_fields or proxy.primary_field in mesh.cell_fields

    def test_unknown_proxy(self):
        with pytest.raises(KeyError):
            create_proxy("nope", 4)

    def test_lulesh_mesh_moves_and_energy_decays(self):
        proxy = LuleshProxy(6, seed=1)
        initial_points = proxy.mesh().points().copy()
        initial_bounds = proxy.mesh().bounds
        initial_energy = proxy.mesh().cell_fields["e"].max()
        proxy.advance(3)
        assert not np.allclose(proxy.mesh().points(), initial_points)
        assert proxy.mesh().cell_fields["e"].max() < initial_energy
        # Lagrangian motion is a bounded perturbation: the deformed mesh stays
        # within a modestly expanded copy of the original bounds.
        expanded = initial_bounds.expanded(0.2 * initial_bounds.diagonal)
        assert expanded.contains_points(proxy.mesh().points()).all()

    def test_kripke_flux_bounded_and_evolving(self):
        proxy = KripkeProxy(6, num_directions=4, seed=1)
        proxy.advance(1)
        first = proxy.mesh().cell_fields["phi"].copy()
        proxy.advance(1)
        second = proxy.mesh().cell_fields["phi"]
        assert np.all(second >= 0.0) and np.all(second <= 1.0 + 1e-9)
        assert not np.allclose(first, second)

    def test_kripke_validation(self):
        with pytest.raises(ValueError):
            KripkeProxy(6, num_directions=9)
        with pytest.raises(ValueError):
            KripkeProxy(1)

    def test_cloverleaf_mass_roughly_conserved(self):
        proxy = CloverleafProxy(8, seed=1)
        initial = proxy.mesh().cell_fields["density"].sum()
        proxy.advance(5)
        final = proxy.mesh().cell_fields["density"].sum()
        assert final == pytest.approx(initial, rel=0.15)
        assert proxy.mesh().cell_fields["density"].min() > 0.0

    def test_describe_conforms_to_blueprint(self):
        for name in ("lulesh", "kripke", "cloverleaf"):
            proxy = create_proxy(name, 5, seed=2)
            proxy.advance(1)
            node = describe_simulation(proxy)
            assert validate_mesh_node(node) == []
            assert node["state/cycle"] == 1


class TestStrawman:
    def _actions(self, variable, renderer, file_name=None, size=48):
        actions = ConduitNode()
        add = actions.append()
        add["action"] = "AddPlot"
        add["var"] = variable
        add["renderer"] = renderer
        draw = actions.append()
        draw["action"] = "DrawPlots"
        if file_name:
            save = actions.append()
            save["action"] = "SaveImage"
            save["fileName"] = file_name
            save["width"] = size
            save["height"] = size
        return actions

    def test_lifecycle_errors(self):
        strawman = Strawman()
        with pytest.raises(RuntimeError):
            strawman.publish(ConduitNode())
        strawman.open(StrawmanOptions(num_ranks=1))
        with pytest.raises(ValueError):
            strawman.publish(ConduitNode())  # not blueprint conforming
        with pytest.raises(RuntimeError):
            strawman.execute(self._actions("e", "raytrace"))

    @pytest.mark.parametrize("renderer", ["raytrace", "raster", "volume"])
    def test_single_rank_render(self, tmp_path, renderer):
        proxy = KripkeProxy(6, seed=4)
        proxy.advance(1)
        strawman = Strawman()
        strawman.open(StrawmanOptions(num_ranks=1, output_directory=str(tmp_path), default_width=40, default_height=40))
        strawman.publish(describe_simulation(proxy))
        record = strawman.execute(self._actions(proxy.primary_field, renderer, file_name=f"img_{renderer}"))
        assert record.framebuffer is not None
        assert record.framebuffer.active_pixels() > 0
        assert record.total_seconds > 0
        assert len(record.saved_files) == 1
        assert os.path.exists(record.saved_files[0])
        strawman.close()

    def test_multi_rank_composited_render(self, tmp_path):
        from repro.runtime import BlockDecomposition

        decomposition = BlockDecomposition(num_tasks=4, cells_per_task=5)
        strawman = Strawman()
        strawman.open(StrawmanOptions(num_ranks=4, output_directory=str(tmp_path), default_width=48, default_height=48))
        for rank in range(4):
            grid = decomposition.block_grid_with_field(rank, "f", lambda p: p[:, 0] + p[:, 1])
            strawman.publish(mesh_to_node(grid), rank=rank)
        record = strawman.execute(self._actions("f", "raytrace"))
        assert record.framebuffer.active_pixels() > 0
        assert len(record.results) == 4
        assert record.composite_seconds > 0

    def test_lulesh_surface_render_with_cell_field(self, tmp_path):
        proxy = LuleshProxy(5, seed=4)
        proxy.advance(1)
        strawman = Strawman()
        strawman.open(StrawmanOptions(num_ranks=1, output_directory=str(tmp_path), default_width=32, default_height=32))
        strawman.publish(describe_simulation(proxy))
        record = strawman.execute(self._actions("e", "raytrace"))
        assert record.framebuffer.active_pixels() > 0

    def test_unknown_action_and_renderer(self, tmp_path):
        proxy = KripkeProxy(5, seed=4)
        proxy.advance(1)
        strawman = Strawman()
        strawman.open(StrawmanOptions(num_ranks=1, output_directory=str(tmp_path), default_width=24, default_height=24))
        strawman.publish(describe_simulation(proxy))
        bad = ConduitNode()
        entry = bad.append()
        entry["action"] = "Explode"
        with pytest.raises(ValueError):
            strawman.execute(bad)
        with pytest.raises(ValueError):
            strawman.execute(self._actions(proxy.primary_field, "unknown-renderer"))

    def test_history_accumulates(self, tmp_path):
        proxy = CloverleafProxy(5, seed=4)
        proxy.advance(1)
        strawman = Strawman()
        strawman.open(StrawmanOptions(num_ranks=1, output_directory=str(tmp_path), default_width=24, default_height=24))
        strawman.publish(describe_simulation(proxy))
        strawman.execute(self._actions(proxy.primary_field, "raster"))
        proxy.advance(1)
        strawman.publish(describe_simulation(proxy))
        strawman.execute(self._actions(proxy.primary_field, "raster"))
        assert len(strawman.history) == 2

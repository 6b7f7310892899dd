"""Fragment-sorted unstructured sampler: geometry precompute + differential tests.

The fast path of :class:`UnstructuredVolumeRenderer` rasterizes each tet's
projected silhouette to pixel columns, intersects every column with the tet's
inward face planes to get an analytic slot span, and resolves fragment
collisions with a combined sort + segmented argmin.  Its contract is to
reproduce the seed brute-force sampler (kept as ``render_reference``)
*bit for bit*; these tests pin that contract on conforming meshes, degenerate
geometry (slivers, sub-pixel and sub-slot tets), randomized tet soups on both
devices, and across ``PAIR_CHUNK`` values.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpp import FrontierEngine
from repro.dpp.device import use_device
from repro.geometry import (
    Camera,
    make_named_dataset,
    tet_face_planes,
    tetrahedralize_uniform_grid,
)
from repro.geometry.mesh import UnstructuredTetMesh
from repro.geometry.tetra import TET_FACES
from repro.rendering import UnstructuredVolumeConfig, UnstructuredVolumeRenderer
from repro.rendering.volume import budget, unstructured
from repro.runtime.decomposition import BlockDecomposition
from repro.simulations.fields import get_simulation_field

UNIT_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def tet_face_adjacency(connectivity: np.ndarray) -> np.ndarray:
    """Neighbour tet across each face, ``-1`` on boundary faces.

    The conformity oracle of :func:`tetrahedralize_uniform_grid` (no renderer
    reads face adjacency).  Faces are keyed by their sorted vertex triple, so
    two tets are adjacent exactly when they share three vertices -- the
    conforming-mesh contract the parity decomposition guarantees.  A face
    shared by more than two tets means the input is non-manifold and raises.
    Entry ``[t, k]`` is the tet sharing face ``k`` of tet ``t`` (the face
    opposite vertex ``k``), or ``-1``.
    """
    connectivity = np.asarray(connectivity, dtype=np.int64)
    if connectivity.ndim != 2 or connectivity.shape[1] != 4:
        raise ValueError("tet_face_adjacency expects a (num_tets, 4) connectivity array")
    num_tets = len(connectivity)
    faces = np.sort(connectivity[:, TET_FACES], axis=2).reshape(-1, 3)
    order = np.lexsort((faces[:, 2], faces[:, 1], faces[:, 0]))
    grouped = faces[order]
    new_run = np.ones(len(grouped), dtype=bool)
    new_run[1:] = np.any(grouped[1:] != grouped[:-1], axis=1)
    run_starts = np.flatnonzero(new_run)
    run_lengths = np.diff(np.append(run_starts, len(grouped)))
    if np.any(run_lengths > 2):
        raise ValueError("non-manifold mesh: a face is shared by more than two tets")
    adjacency = np.full(num_tets * 4, -1, dtype=np.int64)
    owner = order // 4
    paired = run_starts[run_lengths == 2]
    adjacency[order[paired]] = owner[paired + 1]
    adjacency[order[paired + 1]] = owner[paired]
    return adjacency.reshape(num_tets, 4)


def _random_tet_soup(seed: int, kind: str) -> tuple[UnstructuredTetMesh, Camera]:
    """A small random mesh of overlapping tets (not conforming on purpose) and its camera.

    ``kind`` picks the screen-space situation the sampler's silhouette cover
    must handle: ``"framed"`` tets fill a 16x16 view; ``"straddle"`` zooms in
    so tets cross the screen edges; ``"row"`` puts half the points at world
    y = 0 (x = 0 or x = y for a few), which the axis-aligned 15x15 camera maps
    exactly onto pixel-center row 7 (column 7, the diagonal through the pixel
    centers), so edges and faces lie on sampled pixel centers; ``"tiny"``
    makes every tet its own cluster about a pixel wide, most of which cover
    no pixel center.
    """
    rng = np.random.default_rng(seed)
    num_points = int(rng.integers(8, 16))
    points = rng.uniform(-1.0, 1.0, size=(num_points, 3))
    num_tets = int(rng.integers(3, 10))
    connectivity = np.array(
        [rng.choice(num_points, size=4, replace=False) for _ in range(num_tets)], dtype=np.int64
    )
    if kind == "row":
        points[rng.random(num_points) < 0.5, 1] = 0.0
        points[rng.random(num_points) < 0.25, 0] = 0.0
        diagonal = rng.random(num_points) < 0.25
        points[diagonal, 0] = points[diagonal, 1]
    elif kind == "tiny":
        centers = rng.uniform(-1.0, 1.0, size=(num_tets, 1, 3))
        points = (centers + rng.uniform(-0.05, 0.05, size=(num_tets, 4, 3))).reshape(-1, 3)
        num_points = len(points)
        connectivity = np.arange(num_points, dtype=np.int64).reshape(num_tets, 4)
    mesh = UnstructuredTetMesh(points, connectivity)
    mesh.add_point_field("scalar", rng.uniform(0.0, 1.0, size=num_points))
    if kind == "row":
        camera = Camera(width=15, height=15)
    else:
        camera = Camera.framing_bounds(mesh.bounds, 16, 16, zoom=2.0 if kind == "straddle" else 1.2)
    return mesh, camera


def _assert_images_match(renderer: UnstructuredVolumeRenderer, camera: Camera) -> None:
    fast = renderer.render(camera)
    slow = renderer.render_reference(camera)
    assert np.allclose(fast.framebuffer.rgba, slow.framebuffer.rgba, atol=1e-10, rtol=0.0)
    assert np.array_equal(fast.framebuffer.depth, slow.framebuffer.depth)


class TestTetFacePlanes:
    def test_planes_are_inward_unit_normals(self):
        planes, heights = tet_face_planes(UNIT_TET[None])
        assert planes.shape == (1, 4, 4) and heights.shape == (1, 4)
        assert np.allclose(np.linalg.norm(planes[0, :, :3], axis=1), 1.0)
        centroid = UNIT_TET.mean(axis=0)
        assert np.all(planes[0, :, :3] @ centroid + planes[0, :, 3] > 0.0)

    def test_face_vertices_lie_on_their_plane(self):
        planes, _ = tet_face_planes(UNIT_TET[None])
        for face in range(4):
            for corner in TET_FACES[face]:
                distance = planes[0, face, :3] @ UNIT_TET[corner] + planes[0, face, 3]
                assert abs(distance) < 1e-12

    def test_heights_are_opposite_vertex_clearances(self):
        planes, heights = tet_face_planes(UNIT_TET[None])
        for face in range(4):
            clearance = planes[0, face, :3] @ UNIT_TET[face] + planes[0, face, 3]
            assert clearance == pytest.approx(heights[0, face])
            assert heights[0, face] > 0.0

    def test_degenerate_tet_yields_near_zero_heights(self):
        flat = UNIT_TET.copy()
        flat[3] = [0.3, 0.3, 0.0]  # coplanar with the base triangle
        planes, heights = tet_face_planes(flat[None])
        assert np.all(np.isfinite(planes)) and np.all(np.isfinite(heights))
        assert np.all(heights[0] < 1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            tet_face_planes(UNIT_TET)  # missing the leading tet axis


class TestTetFaceAdjacency:
    def test_single_tet_is_all_boundary(self):
        adjacency = tet_face_adjacency(np.array([[0, 1, 2, 3]]))
        assert np.array_equal(adjacency, np.full((1, 4), -1))

    def test_conforming_grid_adjacency_is_symmetric(self):
        grid = make_named_dataset("enzo", (4, 4, 4), seed=5)
        tets = tetrahedralize_uniform_grid(grid)
        adjacency = tet_face_adjacency(tets.connectivity)
        num_tets = len(tets.connectivity)
        assert adjacency.shape == (num_tets, 4)
        interior = adjacency >= 0
        assert np.count_nonzero(interior) > 0
        # Symmetry: if u is across a face of t, then t is across a face of u.
        t_of = np.repeat(np.arange(num_tets), 4)[interior.ravel()]
        u_of = adjacency.ravel()[interior.ravel()]
        assert np.all(np.any(adjacency[u_of] == t_of[:, None], axis=1))

    def test_five_tet_cell_has_interior_faces(self):
        # A single hex decomposes into five tets whose center tet touches the
        # other four; the parity scheme makes the decomposition conforming.
        grid = make_named_dataset("enzo", (2, 2, 2), seed=5)
        tets = tetrahedralize_uniform_grid(grid)
        adjacency = tet_face_adjacency(tets.connectivity)
        assert np.count_nonzero(adjacency >= 0) == 8  # center tet <-> 4 corners

    def test_non_manifold_mesh_raises(self):
        connectivity = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
        with pytest.raises(ValueError):
            tet_face_adjacency(connectivity)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            tet_face_adjacency(np.array([0, 1, 2, 3]))


class TestSilhouetteCover:
    def test_pairs_stay_within_twice_the_nonempty_spans(self, small_tets, monkeypatch):
        # Every (tet, pixel) pair the sampler emits pays a face-plane span.
        # Pairs taken from each tet's screen bounding box are 5x the pairs
        # whose span holds a slot on this scene; the silhouette cover keeps
        # them under 2x, and PAIR_CHUNK still bounds every chunk.
        monkeypatch.setattr(unstructured, "PAIR_CHUNK", 500)
        calls = []
        column_spans = UnstructuredVolumeRenderer._column_spans

        def spy(planes, heights, x, y, first_slot, last_slot):
            start, count = column_spans(planes, heights, x, y, first_slot, last_slot)
            calls.append((len(x), int(np.count_nonzero(count))))
            return start, count

        monkeypatch.setattr(UnstructuredVolumeRenderer, "_column_spans", staticmethod(spy))
        camera = Camera.framing_bounds(small_tets.bounds, 48, 48, zoom=1.2)
        config = UnstructuredVolumeConfig(samples_in_depth=60)
        UnstructuredVolumeRenderer(small_tets, "density", config=config).render(camera)
        pairs, spans = np.sum(calls, axis=0)
        assert spans > 0
        assert pairs <= 2 * spans
        assert max(emitted for emitted, _ in calls) <= 500

    @pytest.mark.parametrize("rank", [0, 7])
    def test_corner_block_keeps_lanes_only_for_its_pixels(self, rank, monkeypatch):
        # A corner block of an 8-rank decomposition under the camera that
        # frames all eight: the engine keeps one lane per pixel of the
        # rectangle its tets' screen boxes span, not one per screen pixel.
        decomposition = BlockDecomposition(8, 6)
        grid = decomposition.block_grid_with_field(rank, "scalar", get_simulation_field("kripke"))
        tets = tetrahedralize_uniform_grid(grid)
        camera = Camera.framing_bounds(decomposition.global_bounds, 48, 48)
        lanes_seen = []

        class RecordingEngine(FrontierEngine):
            def run(self, kernel, lanes, outputs):
                lanes_seen.append(len(lanes))
                return super().run(kernel, lanes, outputs)

        monkeypatch.setattr(unstructured, "FrontierEngine", RecordingEngine)
        config = UnstructuredVolumeConfig(samples_in_depth=40, num_passes=2)
        renderer = UnstructuredVolumeRenderer(tets, "scalar", config=config)
        fast = renderer.render(camera)
        slow = renderer.render_reference(camera)
        assert 0 < lanes_seen[0] < camera.width * camera.height // 2
        assert fast.framebuffer.rgba.tobytes() == slow.framebuffer.rgba.tobytes()
        assert fast.framebuffer.depth.tobytes() == slow.framebuffer.depth.tobytes()
        assert fast.features == slow.features
        assert fast.features.active_pixels > 0


class TestFragmentDifferential:
    def test_pool_scene_is_bit_identical(self, small_tets):
        camera = Camera.framing_bounds(small_tets.bounds, 48, 48, zoom=1.2)
        config = UnstructuredVolumeConfig(samples_in_depth=60, num_passes=4)
        renderer = UnstructuredVolumeRenderer(small_tets, "density", config=config)
        fast = renderer.render(camera)
        slow = renderer.render_reference(camera)
        # Stronger than the 1e-10 acceptance gate: the exact refilter makes
        # the fast path reproduce the reference image bit for bit.
        assert np.array_equal(fast.framebuffer.rgba, slow.framebuffer.rgba)

    @pytest.mark.parametrize("alpha", [0.98, 0.3])
    @pytest.mark.parametrize("passes", [1, 3])
    def test_output_invariant_to_pair_chunk(self, small_tets, passes, alpha, monkeypatch):
        # Neither PAIR_CHUNK nor the sample budget changes a byte, on the
        # engine path or the reference: 500 pairs and a 256-sample budget
        # (span expansion and compositing in many blocks, most rows of a
        # block empty) against one chunk and one block.  At alpha 0.3 pixels
        # retire between passes, so later passes composite retired riders.
        camera = Camera.framing_bounds(small_tets.bounds, 40, 40, zoom=1.2)
        renders = {}
        for chunk, samples in ((500, 256), (4_000_000, 10**9)):
            monkeypatch.setattr(budget, "SAMPLE_BUDGET", samples)
            monkeypatch.setattr(unstructured, "PAIR_CHUNK", chunk)
            config = UnstructuredVolumeConfig(
                samples_in_depth=48, num_passes=passes, early_termination_alpha=alpha
            )
            renderer = UnstructuredVolumeRenderer(small_tets, "density", config=config)
            renders[chunk] = (renderer.render(camera), renderer.render_reference(camera))
        for blocked, whole in zip(renders[500], renders[4_000_000]):
            assert blocked.framebuffer.rgba.tobytes() == whole.framebuffer.rgba.tobytes()
            assert blocked.framebuffer.depth.tobytes() == whole.framebuffer.depth.tobytes()
            assert blocked.features == whole.features

    @pytest.mark.parametrize("lane_ids", [None, np.array([2, 0, 1])])
    def test_empty_block_keeps_the_opacity_update(self, small_tets, lane_ids, monkeypatch):
        # Once a pass has data, a row without any still takes 1 - (1 - a),
        # which is not a at a = 0.1: a one-row block must not skip it.
        renderer = UnstructuredVolumeRenderer(small_tets, "density")
        sample_scalar = np.full((3, 4), np.nan)
        sample_scalar[2, 1] = 0.5
        composited = []
        for samples in (4, 10**9):
            monkeypatch.setattr(budget, "SAMPLE_BUDGET", samples)
            accum_rgb = np.zeros((3, 3))
            accum_alpha = np.array([0.0, 0.1, 0.1])
            taken = renderer._composite_rows(
                sample_scalar, accum_rgb, accum_alpha, 0.05, None, lane_ids=lane_ids
            )
            composited.append((taken, accum_rgb.tobytes(), accum_alpha.tobytes()))
        assert composited[0] == composited[1]
        assert composited[0][0] == 1
        assert 1.0 - (1.0 - 0.1) != 0.1

    def test_sliver_tets_match_reference(self):
        # Flat (zero-determinant) and near-flat sliver tets alongside a
        # regular one: the degenerate mask and the conservative span must
        # agree with the brute-force enumeration.
        points = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.4, 0.4, 0.0],  # exactly coplanar with the base
                [0.6, 0.2, 1e-9],  # sliver: barely off the base plane
                [0.2, 0.6, 0.5],
            ]
        )
        connectivity = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5], [1, 2, 5, 6]])
        mesh = UnstructuredTetMesh(points, connectivity)
        mesh.add_point_field("scalar", np.linspace(0.1, 1.0, len(points)))
        config = UnstructuredVolumeConfig(samples_in_depth=32, num_passes=2)
        renderer = UnstructuredVolumeRenderer(mesh, "scalar", config=config)
        camera = Camera.framing_bounds(mesh.bounds, 32, 32, zoom=1.2)
        _assert_images_match(renderer, camera)

    def test_sub_pixel_and_sub_slot_tets_leave_no_holes(self, small_tets):
        # Zoomed far out, every tet is smaller than a pixel; with few depth
        # slots every tet is also thinner than a slot.  The fast path must
        # keep the one-candidate-per-column hole-avoidance guarantee and
        # still match the reference exactly.
        camera = Camera.framing_bounds(small_tets.bounds, 24, 24, zoom=0.12)
        config = UnstructuredVolumeConfig(samples_in_depth=4, num_passes=2)
        renderer = UnstructuredVolumeRenderer(small_tets, "density", config=config)
        fast = renderer.render(camera)
        slow = renderer.render_reference(camera)
        assert fast.features.active_pixels > 0
        assert np.array_equal(fast.framebuffer.rgba, slow.framebuffer.rgba)

    def test_conforming_mesh_columns_have_no_gaps(self):
        # On a conforming tetrahedralized box (adjacency-verified) with a
        # constant field, the filled depth slots of every pixel column must
        # form one contiguous run: shared faces hand samples over without
        # cracks, the hole-avoidance property the -1e-9 tolerance guards.
        grid = make_named_dataset("enzo", (6, 6, 6), seed=7)
        tets = tetrahedralize_uniform_grid(grid)
        assert np.count_nonzero(tet_face_adjacency(tets.connectivity) >= 0) > 0
        tets.add_point_field("one", np.ones(len(tets.points())))
        config = UnstructuredVolumeConfig(samples_in_depth=24)
        renderer = UnstructuredVolumeRenderer(tets, "one", config=config)
        camera = Camera.framing_bounds(tets.bounds, 24, 24, zoom=1.1)
        prepared = renderer._prepare(camera)
        num_pixels = camera.width * camera.height
        sample_scalar = np.full((num_pixels, config.samples_in_depth), np.nan)
        renderer._sample_pass(
            prepared.screen_vertices,
            prepared.box_lo,
            prepared.box_size,
            prepared.tet_scalars,
            prepared.face_planes,
            prepared.face_heights,
            0,
            config.samples_in_depth,
            sample_scalar,
            np.ones(num_pixels, dtype=bool),
            (0, 0, camera.width, camera.height),
        )
        filled = ~np.isnan(sample_scalar)
        covered = filled.any(axis=1)
        assert np.count_nonzero(covered) > 0
        rising_edges = np.count_nonzero(np.diff(filled[covered].astype(np.int8), axis=1) == 1, axis=1)
        starts_filled = filled[covered, 0].astype(np.int64)
        assert np.all(rising_edges + starts_filled == 1)

    @settings(max_examples=24, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        passes=st.integers(1, 3),
        kind=st.sampled_from(["framed", "straddle", "row", "tiny"]),
    )
    def test_random_tet_soups_match_reference(self, seed, passes, kind):
        mesh, camera = _random_tet_soup(seed, kind)
        config = UnstructuredVolumeConfig(samples_in_depth=20, num_passes=passes)
        renderer = UnstructuredVolumeRenderer(mesh, "scalar", config=config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(unstructured, "PAIR_CHUNK", 300)
            for device in ("vectorized", "serial"):
                with use_device(device):
                    _assert_images_match(renderer, camera)

    def test_devices_agree_bit_for_bit(self, small_tets):
        camera = Camera.framing_bounds(small_tets.bounds, 20, 20, zoom=1.2)
        config = UnstructuredVolumeConfig(samples_in_depth=24, num_passes=2)
        renderer = UnstructuredVolumeRenderer(small_tets, "density", config=config)
        fast = renderer.render(camera)
        with use_device("serial"):
            serial = renderer.render(camera)
        assert np.array_equal(fast.framebuffer.rgba, serial.framebuffer.rgba)

    def test_sample_chunk_requires_image_width(self):
        # The seed signature defaulted image_width to 0, silently aliasing
        # every row onto the first (py * 0 + px); it is now keyword-only and
        # required.
        parameter = inspect.signature(UnstructuredVolumeRenderer._sample_chunk).parameters[
            "image_width"
        ]
        assert parameter.kind is inspect.Parameter.KEYWORD_ONLY
        assert parameter.default is inspect.Parameter.empty

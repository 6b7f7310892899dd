"""Tests for the shared :class:`repro.rendering.rays.RayEmitter` front-end."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.aabb import AABB, ray_box_intervals
from repro.geometry.transforms import Camera, project_points
from repro.rendering.rays import REACH_MARGIN, RayEmitter, pixel_boxes, screen_footprint
from repro.runtime.decomposition import BlockDecomposition


def _camera(width=16, height=12):
    return Camera(
        position=np.array([0.0, 0.0, 4.0]),
        look_at=np.zeros(3),
        up=np.array([0.0, 1.0, 0.0]),
        fov_y_degrees=45.0,
        width=width,
        height=height,
    )


class TestOrdering:
    def test_morton_order_is_a_permutation_of_raster_order(self):
        camera = _camera()
        morton_ids, morton_origins, morton_dirs = RayEmitter(camera, morton_order=True).emit()
        raster_ids, raster_origins, raster_dirs = RayEmitter(camera, morton_order=False).emit()
        assert np.array_equal(np.sort(morton_ids), np.arange(camera.width * camera.height))
        assert np.array_equal(raster_ids, np.arange(camera.width * camera.height))
        # Same rays, different order: re-sorting by pixel id recovers raster.
        back = np.argsort(morton_ids, kind="stable")
        assert np.allclose(morton_origins[back], raster_origins)
        assert np.allclose(morton_dirs[back], raster_dirs)

    def test_morton_order_is_locality_preserving_at_the_start(self):
        # The first four Morton pixels are the 2x2 block at the origin.
        camera = _camera(width=8, height=8)
        pixel_ids, _, _ = RayEmitter(camera, morton_order=True).emit()
        first_block = {(int(p) % 8, int(p) // 8) for p in pixel_ids[:4]}
        assert first_block == {(0, 0), (1, 0), (0, 1), (1, 1)}

    @pytest.mark.parametrize("supersample", [1, 4])
    @pytest.mark.parametrize("morton_order", [False, True])
    def test_bounds_leave_out_the_pixels_outside_their_footprint(self, supersample, morton_order):
        # A box in one corner of the view: the emission is the full-screen
        # one with every ray of a pixel outside the footprint removed, the
        # same rays bit for bit and in the same order.
        camera = _camera(width=24, height=20)
        bounds = AABB(np.array([0.6, 0.4, -0.3]), np.array([1.4, 1.1, 0.2]))
        emitter = RayEmitter(camera, supersample=supersample, morton_order=morton_order)
        full_ids, full_origins, full_dirs = emitter.emit()
        footprint = screen_footprint(camera, bounds)
        assert 0 < len(footprint) < camera.width * camera.height // 4
        kept = np.isin(full_ids, footprint)
        pixel_ids, origins, directions = emitter.emit(bounds)
        assert np.array_equal(pixel_ids, full_ids[kept])
        assert origins.tobytes() == full_origins[kept].tobytes()
        assert directions.tobytes() == full_dirs[kept].tobytes()


class TestSupersampling:
    def test_four_jittered_rays_per_pixel(self):
        camera = _camera()
        pixel_ids, origins, directions = RayEmitter(camera, supersample=4).emit()
        assert len(pixel_ids) == 4 * camera.width * camera.height
        counts = np.bincount(pixel_ids, minlength=camera.width * camera.height)
        assert (counts == 4).all()
        # Sub-pixel rays of one pixel are distinct (jittered positions).
        rows = np.flatnonzero(pixel_ids == pixel_ids[0])
        assert len(np.unique(directions[rows], axis=0)) == 4

    def test_supersample_averaging_recovers_pixel_center_direction(self):
        """The mean of a pixel's four sub-rays approximates its center ray."""
        camera = _camera()
        pixel_ids, _, directions = RayEmitter(camera, supersample=4).emit()
        _, _, center_dirs = RayEmitter(camera, supersample=1).emit()
        sums = np.zeros((camera.width * camera.height, 3))
        np.add.at(sums, pixel_ids, directions)
        means = sums / 4.0
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        # The four sub-pixel directions straddle the center; their normalized
        # mean lands within a fraction of a pixel's angular footprint.
        assert np.allclose(means, center_dirs, atol=2e-3)

    def test_supersample_grouping_keeps_pixels_contiguous(self):
        camera = _camera()
        pixel_ids, _, _ = RayEmitter(camera, supersample=4).emit()
        # Each pixel's four rays are adjacent in the stream (per-pixel
        # averaging consumes them as one segment).
        boundaries = np.flatnonzero(np.diff(pixel_ids) != 0) + 1
        segments = np.diff(np.concatenate(([0], boundaries, [len(pixel_ids)])))
        assert (segments == 4).all()

    def test_supersample_validation(self):
        with pytest.raises(ValueError):
            RayEmitter(_camera(), supersample=2)


class TestBoundsClipping:
    def test_emit_clipped_matches_manual_slab_test(self):
        camera = _camera()
        bounds = AABB(np.array([-0.6, -0.6, -0.6]), np.array([0.6, 0.6, 0.6]))
        pixel_ids, origins, directions, t_near, t_far = RayEmitter(camera).emit_clipped(bounds)
        all_ids, all_origins, all_dirs = RayEmitter(camera).emit()
        near_all, far_all = ray_box_intervals(all_origins, all_dirs, bounds.low, bounds.high)
        near_all = np.maximum(near_all, 0.0)
        keep = far_all > near_all
        assert np.array_equal(pixel_ids, all_ids[keep])
        assert np.allclose(t_near, near_all[keep])
        assert np.allclose(t_far, far_all[keep])
        assert np.allclose(origins, all_origins[keep])
        assert np.allclose(directions, all_dirs[keep])

    def test_frustum_edge_rays_are_dropped(self):
        """A box covering a screen corner keeps corner rays and drops the rest."""
        camera = _camera(width=24, height=24)
        # Small box far off to one side: only a fraction of rays can hit it.
        bounds = AABB(np.array([1.2, 1.2, -0.2]), np.array([1.8, 1.8, 0.2]))
        pixel_ids, _, _, t_near, t_far = RayEmitter(camera).emit_clipped(bounds)
        assert 0 < len(pixel_ids) < camera.width * camera.height
        assert (t_far > t_near).all()
        assert (t_near >= 0.0).all()
        # The surviving pixels cluster in the image corner the box projects to
        # (up in +y means smaller row index; +x maps to larger column index).
        columns = pixel_ids % camera.width
        rows = pixel_ids // camera.width
        assert columns.min() >= camera.width // 2
        assert rows.max() < camera.height // 2

    def test_box_behind_camera_clips_everything(self):
        camera = _camera()
        bounds = AABB(np.array([-0.5, -0.5, 8.0]), np.array([0.5, 0.5, 9.0]))
        pixel_ids, origins, directions, t_near, t_far = RayEmitter(camera).emit_clipped(bounds)
        assert len(pixel_ids) == 0

    def test_camera_inside_box_keeps_all_rays_from_zero(self):
        camera = _camera()
        bounds = AABB(np.array([-10.0, -10.0, -10.0]), np.array([10.0, 10.0, 10.0]))
        pixel_ids, _, _, t_near, t_far = RayEmitter(camera).emit_clipped(bounds)
        assert len(pixel_ids) == camera.width * camera.height
        assert np.all(t_near == 0.0)  # rays start inside the box
        assert np.all(t_far > 0.0)


class TestScreenFootprint:
    @settings(max_examples=150, deadline=None)
    @given(
        low=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        extent=st.tuples(*[st.floats(0.05, 4.0)] * 3),
        azimuth=st.floats(0.0, 360.0),
        elevation=st.floats(-80.0, 80.0),
        zoom=st.floats(0.25, 4.0),
        width=st.integers(1, 64),
        height=st.integers(1, 64),
        fractions=st.tuples(*[st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted)] * 3),
    )
    def test_every_reaching_pixel_is_in_the_footprint(
        self, low, extent, azimuth, elevation, zoom, width, height, fractions
    ):
        # The certificate every emission rests on: a pixel whose full-screen
        # center ray reaches a box is never left out.  At zoom up to 4 the
        # camera can sit inside the framed box, and a sub-box can hold it too.
        frame = AABB(np.array(low), np.array(low) + np.array(extent))
        camera = Camera.framing_bounds(
            frame, width, height,
            azimuth_degrees=azimuth, elevation_degrees=elevation, zoom=zoom,
        )
        (lo_x, hi_x), (lo_y, hi_y), (lo_z, hi_z) = fractions
        box = AABB(
            frame.low + np.array([lo_x, lo_y, lo_z]) * frame.extent,
            frame.low + np.array([hi_x, hi_y, hi_z]) * frame.extent,
        )
        box = box.expanded(REACH_MARGIN * box.diagonal)
        origins, directions = camera.generate_rays()
        t_near, t_far = ray_box_intervals(origins, directions, box.low, box.high)
        reaching = np.flatnonzero(t_far > np.maximum(t_near, 0.0))
        footprint = screen_footprint(camera, box)
        assert np.all(np.diff(footprint) > 0)
        assert np.isin(reaching, footprint).all()
        if box.contains_points(camera.position[None, :])[0]:
            assert np.array_equal(footprint, np.arange(width * height))

    def test_a_corner_block_gets_a_strict_sub_rectangle(self):
        decomposition = BlockDecomposition(8, 6)
        camera = Camera.framing_bounds(decomposition.global_bounds, 150, 150)
        for rank in (0, 7):
            footprint = screen_footprint(camera, decomposition.block_bounds(rank))
            columns, rows = footprint % 150, footprint // 150
            # A full rectangle of pixels, well under half the screen.
            spanned = (np.ptp(columns) + 1) * (np.ptp(rows) + 1)
            assert len(footprint) == spanned < 150 * 150 // 2

    def test_no_bounds_and_a_camera_inside_give_the_whole_screen(self):
        camera = _camera()
        whole = np.arange(camera.width * camera.height)
        assert np.array_equal(screen_footprint(camera, None), whole)
        around = AABB(np.full(3, -10.0), np.full(3, 10.0))
        assert np.array_equal(screen_footprint(camera, around), whole)

    def test_a_box_off_screen_gets_no_pixels(self):
        camera = _camera()
        beside = AABB(np.array([40.0, -0.5, -0.5]), np.array([41.0, 0.5, 0.5]))
        assert len(screen_footprint(camera, beside)) == 0


class TestRowConventions:
    """One screen-row convention for every renderer: row 0 is the top of the image."""

    def test_a_point_above_the_look_at_lands_in_the_top_half(self):
        camera = Camera(width=64, height=64)
        above = np.array([0.0, 1.0, 0.0])  # one unit above the look-at point
        # Object order (rasterizer, tet caster, splat baseline).
        screen, w = camera.world_to_screen(above[None, :])
        assert w[0] > 0.0
        assert screen[0, 0] == pytest.approx(32.0)
        assert screen[0, 1] == pytest.approx(16.55, abs=0.01)
        # Image order (ray tracer, structured caster): the footprint of a
        # small box around the point, and the rays through rows 16 and 47.
        footprint = screen_footprint(camera, AABB(above - 0.05, above + 0.05))
        assert np.unique(footprint // camera.width).tolist() == [15, 16, 17]
        origins, directions = camera.generate_rays(np.array([16 * 64 + 31, 47 * 64 + 31]))
        heights = origins[:, 1] - origins[:, 2] / directions[:, 2] * directions[:, 1]  # at z = 0
        assert heights[0] == pytest.approx(1.0, abs=0.01)
        assert heights[1] == pytest.approx(-1.0, abs=0.01)

    def test_rows_are_the_exact_mirror_of_the_bottom_up_viewport(self):
        # ``height - y``, not ``(1 - ndc_y) * height / 2``: only the exact
        # mirror keeps every floor/ceil pixel edge, hence every object-order
        # box and feature, the bottom-up convention's mirror image.
        camera = Camera.framing_bounds(AABB(np.zeros(3), np.ones(3)), 41, 33)
        points = np.random.default_rng(7).uniform(-0.5, 1.5, size=(200, 3))
        screen, _ = camera.world_to_screen(points)
        ndc, _ = project_points(points, camera.view_projection_matrix())
        bottom_up = (ndc[:, 1] + 1.0) * 0.5 * camera.height
        assert screen[:, 1].tobytes() == (camera.height - bottom_up).tobytes()


class TestPixelBoxes:
    def test_boxes_are_the_touched_pixels_clamped_to_the_screen(self):
        xy = np.array([
            [[1.2, 2.0], [3.5, 4.7]],      # inside: floor of the min to ceil of the max
            [[-5.0, -3.0], [-1.0, -0.5]],  # off the top-left corner: empty
            [[30.0, 1.0], [31.0, 2.0]],    # off the right edge: empty
            [[-1.0, 0.2], [9.9, 0.4]],     # wider than the screen: clamped
        ])
        lo, hi = pixel_boxes(xy, 10, 8)
        assert lo.tolist() == [[1, 2], [0, 0], [10, 1], [0, 0]]
        assert hi.tolist() == [[4, 5], [0, 0], [10, 2], [10, 1]]

    def test_the_clamp_comes_before_the_integer_cast(self):
        xy = np.array([[[0.5, np.nan], [np.inf, 1e30]], [[-np.inf, 2.0], [1e300, 3.0]]])
        lo, hi = pixel_boxes(xy, 10, 8)
        assert lo.tolist() == [[0, 0], [0, 2]]
        assert hi.tolist() == [[10, 0], [10, 3]]

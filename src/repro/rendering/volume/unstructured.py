"""Unstructured (tetrahedral) volume renderer via multi-pass sampling (Chapter III).

The algorithm populates a ``width x height x samples`` buffer of scalar
samples and composites it in depth.  To bound memory it can split the sample
buffer into multiple passes over depth; each pass runs four phases built from
data-parallel primitives exactly as Algorithm 2 of the dissertation describes:

1. **Pass selection** -- map a threshold over the per-tet depth ranges, reduce
   to count the active tets, exclusive-scan + reverse-index + gather to build
   the compacted active-tet list.
2. **Screen-space transformation** -- map the active tets' vertices through
   the camera transform.
3. **Sampling** -- for every active tet, visit the (pixel, depth-slot) samples
   inside its screen-space bounding box, run an inside test via barycentric
   coordinates, and write interpolated scalars into the sample buffer.  The
   sampler consults the per-pixel *lane residency* so fully opaque pixels stop
   generating work (the analogue of early ray termination).
4. **Compositing** -- map over the resident pixels' sample rows front to back,
   accumulating color and opacity per pixel.

An initialization step (run once) computes the per-tet depth ranges used by
pass selection.

Since the frontier refactor the per-pixel accumulation runs on the shared
:class:`repro.dpp.FrontierEngine`: every pixel of the block's *window* -- the
rectangle its tets' pixel boxes (:func:`repro.rendering.rays.pixel_boxes`,
at least one pixel each) span -- is a lane carrying its RGBA
accumulators, one engine step executes one pass, and a pixel crossing the
early-termination opacity *retires* -- the engine compacts it out, later
passes' samplers skip it via the residency mask, and later compositing never
touches its row.  No sample reaches a pixel outside the window, so a corner
block of a decomposed domain buffers and composites only its own corner.

**Fragment-sorted sampling** (the fast path behind :meth:`render`) replaces
the seed sampler's dense candidate enumeration.  The seed loop visited every
``box_w x box_h x box_d`` (pixel, depth-slot) pair of each tet's screen-space
AABB and rejected 85-90% of them with the barycentric inside test; the
fragment formulation (the HAVS-style competitor of the paper's Figure 6)
enumerates only the 2D pixel columns a *silhouette cover* admits -- per box
row, the padded x-span of the hull of the tet's four projected vertices --
intersects each column with the tet's four inward face planes
(:func:`repro.geometry.tetra.tet_face_planes`) to get the analytic entry/exit
slot span, emits one fragment per (pixel, slot, tet) in the span, and
resolves fragment collisions per sample-buffer cell with one combined sort +
:func:`~repro.dpp.primitives.segmented_argmin` -- the same machinery the
sort-last compositor uses.  The cover and the span are conservative (slacks
proportional to the tet's extent and the face clearance cover float rounding
and the reference's ``-1e-9`` barycentric tolerance) and every surviving
fragment re-runs the reference's *exact* inside test, so the fast path
reproduces the seed sampler's accepted-sample set -- and therefore its image
-- bit for bit.
:meth:`UnstructuredVolumeRenderer.render_reference` keeps the pre-frontier
full-width loop with the seed sampler as the differential reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dpp.frontier import FrontierEngine, FrontierLanes
from repro.dpp.primitives import (
    exclusive_scan,
    gather,
    map_field,
    reduce_field,
    reverse_index,
    scatter,
    segmented_argmin,
)
from repro.geometry.mesh import UnstructuredTetMesh
from repro.geometry.tetra import tet_face_planes
from repro.geometry.transforms import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.rays import pixel_boxes
from repro.rendering.result import ObservedFeatures, PhaseClock, RenderResult
from repro.rendering.volume import budget
from repro.rendering.volume.transfer_function import TransferFunction
from repro.util.packing import chunk_ranges, segment_local_indices

__all__ = ["UnstructuredVolumeConfig", "UnstructuredVolumeRenderer"]

#: Maximum candidate pairs evaluated per batch.  On the engine path
#: (:meth:`UnstructuredVolumeRenderer.render`) a pair is a (tet, pixel-column)
#: pair of the column-span phase; the reference sampler counts (tet, sample)
#: pairs.  The value holds the column phase's four face-plane evaluations per
#: column at :data:`~repro.rendering.volume.budget.SAMPLE_BUDGET`.  Read at
#: call time, so tests monkeypatch it.
PAIR_CHUNK = budget.SAMPLE_BUDGET // 4


@dataclass
class UnstructuredVolumeConfig:
    """Tunable parameters of the unstructured volume renderer.

    Attributes
    ----------
    samples_in_depth:
        Total number of depth slots in the sample buffer (1000 in the paper's
        full-scale study).
    num_passes:
        How many passes the depth range is split into; more passes mean less
        memory per pass plus the opportunity for early ray termination
        between passes.
    early_termination_alpha:
        Per-pixel opacity at which further samples are skipped.
    """

    samples_in_depth: int = 200
    num_passes: int = 1
    early_termination_alpha: float = 0.98

    def __post_init__(self) -> None:
        if self.samples_in_depth < 1:
            raise ValueError("samples_in_depth must be positive")
        if self.num_passes < 1:
            raise ValueError("num_passes must be positive")
        if not 0.0 < self.early_termination_alpha <= 1.0:
            raise ValueError("early_termination_alpha must be in (0, 1]")


#: Conservative slack for the analytic face-plane span test, scaled by each
#: face's opposite-vertex clearance.  The exact inside test accepts barycentric
#: coordinates down to -1e-9, i.e. plane distances down to ``-1e-9 * height``;
#: the slack must dominate that plus the rounding error of evaluating the
#: plane at a pixel center, and 1e-6 * (1 + height) does both with orders of
#: magnitude to spare while staying far below one depth slot.
_SPAN_SLACK = 1e-6

#: The six edges of a tet as vertex-index pairs: every edge of the projected
#: hull of its four vertices is one of them.
_HULL_EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])


@dataclass
class _PreparedTets:
    """Per-tet screen-space state shared by the engine and reference paths.

    ``screen_vertices`` holds the ``(px, py, depth-slot)`` positions and
    ``box_lo`` / ``box_size`` each tet's :func:`pixel_boxes` box, grown to at
    least one pixel so sub-pixel tets leave no holes in a coarse mesh's image
    (both samplers enumerate these pixel columns); the face planes/heights
    (:func:`tet_face_planes` over the vertices) power the fragment sampler's
    analytic span test and are unused by the reference.
    """

    screen_vertices: np.ndarray  # (nt, 4, 3)
    box_lo: np.ndarray  # (nt, 2) first column and row
    box_size: np.ndarray  # (nt, 2) columns and rows, each >= 1
    slot_low: np.ndarray  # (nt,)
    slot_high: np.ndarray  # (nt,)
    tet_scalars: np.ndarray  # (nt, 4)
    face_planes: np.ndarray  # (nt, 4, 4) inward unit planes in screen space
    face_heights: np.ndarray  # (nt, 4) opposite-vertex clearances
    depth_min: float
    step_length: float


class _TetPassKernel:
    """One engine step per sampling pass over the depth-slot range.

    Lanes are the pixels of the block's window ``(x0, y0, w, h)``, the
    rectangle the tets' pixel boxes span, numbered row-major inside it; the
    kernel runs the pass-selection, screen-space, and sampling phases over
    every active tet (they are object-order), gathers the resident pixels'
    sample rows, and composites them into the lane accumulators.  Early ray
    termination is lane retirement: the engine compacts opaque pixels away
    and the sampler's residency mask stops generating candidate samples for
    them.
    """

    output_fields = ("accum_rgb", "accum_alpha")

    def __init__(
        self,
        renderer: "UnstructuredVolumeRenderer",
        prepared: _PreparedTets,
        clock: PhaseClock,
    ) -> None:
        self.renderer = renderer
        self.prepared = prepared
        self.clock = clock
        config = renderer.config
        self.window = (0, 0, 0, 0)
        if len(prepared.box_lo):
            x0, y0 = prepared.box_lo.min(axis=0).tolist()
            x1, y1 = (prepared.box_lo + prepared.box_size).max(axis=0).tolist()
            self.window = (x0, y0, x1 - x0, y1 - y0)
        self.num_lanes = self.window[2] * self.window[3]
        self.total_slots = config.samples_in_depth
        self.slots_per_pass = int(np.ceil(self.total_slots / config.num_passes))
        self.pass_index = 0
        self.samples_with_data = 0

    def step(self, lanes: FrontierLanes) -> np.ndarray:
        renderer = self.renderer
        config = renderer.config
        clock = self.clock
        accum_alpha = lanes["accum_alpha"]
        first_slot = self.pass_index * self.slots_per_pass
        last_slot = min(first_slot + self.slots_per_pass, self.total_slots)
        self.pass_index += 1
        if first_slot >= last_slot:
            return np.ones(len(lanes), dtype=bool)
        final_pass = self.pass_index >= config.num_passes or last_slot >= self.total_slots

        with clock.phase("pass_selection"):
            active = renderer._pass_selection(
                self.prepared.slot_low, self.prepared.slot_high, first_slot, last_slot
            )
        if len(active) == 0:
            done = np.ones(len(lanes), dtype=bool) if final_pass else lanes.retired.copy()
            return done

        with clock.phase("screen_space"):
            # Screen-space tet vertices: (px, py, depth-slot), plus the face
            # planes powering the fragment sampler's analytic span test.
            vertices = self.prepared.screen_vertices[active]
            box_lo, box_size = self.prepared.box_lo[active], self.prepared.box_size[active]
            active_planes = self.prepared.face_planes[active]
            active_heights = self.prepared.face_heights[active]
            active_scalars = self.prepared.tet_scalars[active]

        with clock.phase("sampling"):
            # Lane residency is the sampler's early-termination mask: only
            # pixels still resident (and not retired) receive samples.
            open_mask = np.zeros(self.num_lanes, dtype=bool)
            open_mask[lanes.lane_ids[~lanes.retired]] = True
            sample_scalar = np.full((self.num_lanes, last_slot - first_slot), np.nan)
            renderer._sample_pass(
                vertices,
                box_lo,
                box_size,
                active_scalars,
                active_planes,
                active_heights,
                first_slot,
                last_slot,
                sample_scalar,
                open_mask,
                self.window,
            )

        with clock.phase("compositing"):
            self.samples_with_data += renderer._composite_rows(
                sample_scalar,
                lanes["accum_rgb"],
                accum_alpha,
                self.prepared.step_length,
                ~lanes.retired,
                lane_ids=lanes.lane_ids,
            )

        if final_pass:
            return np.ones(len(lanes), dtype=bool)
        return accum_alpha >= config.early_termination_alpha


@dataclass
class UnstructuredVolumeRenderer:
    """Multi-pass sampling volume renderer for tetrahedral meshes."""

    mesh: UnstructuredTetMesh
    field_name: str
    transfer_function: TransferFunction | None = None
    config: UnstructuredVolumeConfig = field(default_factory=UnstructuredVolumeConfig)

    def __post_init__(self) -> None:
        if self.field_name not in self.mesh.point_fields:
            raise KeyError(f"mesh has no point field named {self.field_name!r}")
        if self.transfer_function is None:
            values = np.asarray(self.mesh.point_fields[self.field_name])
            self.transfer_function = TransferFunction(
                scalar_range=(float(values.min()), float(values.max())),
                unit_distance=max(self.mesh.bounds.diagonal / 100.0, 1e-12),
            )

    # -- phases ------------------------------------------------------------------------
    def _pass_selection(
        self, slot_low: np.ndarray, slot_high: np.ndarray, first_slot: int, last_slot: int
    ) -> np.ndarray:
        """Compacted indices of tets overlapping the pass's depth-slot range."""
        flags = map_field(
            lambda lo, hi: ((hi >= first_slot) & (lo < last_slot)).astype(np.int64),
            slot_low,
            slot_high,
        )
        count = int(reduce_field(flags, "add"))
        if count == 0:
            return np.empty(0, dtype=np.int64)
        scanned = exclusive_scan(flags)
        indices = reverse_index(scanned, flags.astype(bool))
        return gather(np.arange(len(flags), dtype=np.int64), indices)

    def _prepare(self, camera: Camera) -> _PreparedTets:
        """The init step of Algorithm 2, shared by the engine and reference paths."""
        total_slots = self.config.samples_in_depth
        points = self.mesh.points()
        screen, _ = camera.world_to_screen(points)
        depth = camera.depth_along_view(points)
        corner = self.mesh.connectivity
        tet_screen_xy = screen[corner][..., :2]  # (nt, 4, 2)
        depth_min = float(depth.min())
        depth_extent = max(float(depth.max()) - depth_min, 1e-12)
        tet_slots = (depth[corner] - depth_min) / depth_extent * total_slots
        screen_vertices = np.concatenate([tet_screen_xy, tet_slots[..., None]], axis=2)
        face_planes, face_heights = tet_face_planes(screen_vertices)
        scalars = np.asarray(self.mesh.point_fields[self.field_name], dtype=np.float64)
        box_lo, box_hi = pixel_boxes(tet_screen_xy, camera.width, camera.height)
        box_lo = np.minimum(box_lo, [camera.width - 1, camera.height - 1])
        return _PreparedTets(
            screen_vertices=screen_vertices,
            box_lo=box_lo,
            box_size=np.maximum(box_hi - box_lo, 1),
            slot_low=tet_slots.min(axis=1),
            slot_high=tet_slots.max(axis=1),
            tet_scalars=scalars[corner],
            face_planes=face_planes,
            face_heights=face_heights,
            depth_min=depth_min,
            step_length=depth_extent / total_slots,
        )

    # -- main entry point -----------------------------------------------------------------
    def render(self, camera: Camera) -> RenderResult:
        """Volume render the tetrahedral mesh from ``camera`` on the frontier engine."""
        framebuffer = Framebuffer(camera.width, camera.height)
        features = ObservedFeatures(objects=self.mesh.num_cells)

        clock = PhaseClock("volume")
        with clock.phase("initialization"):
            prepared = self._prepare(camera)
            kernel = _TetPassKernel(self, prepared, clock)

        # One lane per pixel of the block's window; no sample reaches a pixel
        # outside it, so those pixels keep the zero a lane would end with.
        num_lanes = kernel.num_lanes
        lanes = FrontierLanes(
            np.arange(num_lanes, dtype=np.int64),
            {
                "accum_rgb": np.zeros((num_lanes, 3)),
                "accum_alpha": np.zeros(num_lanes),
            },
        )
        outputs = {
            "accum_rgb": np.zeros((num_lanes, 3)),
            "accum_alpha": np.zeros(num_lanes),
        }
        # The engine's flush/compaction work runs between kernel steps, in no
        # phase the kernel opens; the enclosing phase keeps it as compositing
        # (it is per-pixel accumulator movement).
        with clock.phase("compositing"):
            FrontierEngine().run(kernel, lanes, outputs)
        accum_rgb = outputs["accum_rgb"]
        accum_alpha = outputs["accum_alpha"]

        features.active_pixels = int(np.count_nonzero(accum_alpha > 0.0))
        features.samples_per_ray = kernel.samples_with_data / max(features.active_pixels, 1)
        features.cells_spanned = int(round(self.mesh.num_cells ** (1.0 / 3.0)))

        rgba = np.concatenate([accum_rgb, accum_alpha[:, None]], axis=1)
        written = np.flatnonzero(accum_alpha > 0.0)
        x0, y0, window_width, _ = kernel.window
        rows, columns = np.divmod(written, window_width)
        # Covered pixels report the nearest data depth, clamped at the camera
        # (behind-camera points must not produce negative layer depths).
        framebuffer.write_pixels(
            (rows + y0) * camera.width + (columns + x0),
            rgba[written],
            np.full(len(written), max(prepared.depth_min, 0.0)),
        )
        return RenderResult(framebuffer, clock.seconds, features, technique="volume_unstructured")

    def render_reference(self, camera: Camera) -> RenderResult:
        """Pre-frontier full-width multi-pass loop, kept as the differential
        reference for the engine path (golden-image tests and the volume
        throughput benchmark's seed baseline)."""
        config = self.config
        clock = PhaseClock("volume")
        framebuffer = Framebuffer(camera.width, camera.height)
        features = ObservedFeatures(objects=self.mesh.num_cells)
        num_pixels = camera.width * camera.height
        total_slots = config.samples_in_depth

        with clock.phase("initialization"):
            prepared = self._prepare(camera)

        accum_rgb = np.zeros((num_pixels, 3))
        accum_alpha = np.zeros(num_pixels)
        slots_per_pass = int(np.ceil(total_slots / config.num_passes))
        samples_with_data = 0

        for pass_index in range(config.num_passes):
            first_slot = pass_index * slots_per_pass
            last_slot = min(first_slot + slots_per_pass, total_slots)
            if first_slot >= last_slot:
                break

            with clock.phase("pass_selection"):
                active = self._pass_selection(
                    prepared.slot_low, prepared.slot_high, first_slot, last_slot
                )
            if len(active) == 0:
                continue

            with clock.phase("screen_space"):
                # Screen-space tet vertices: (px, py, depth-slot).
                vertices = prepared.screen_vertices[active]
                lo, size = prepared.box_lo[active], prepared.box_size[active]
                scalars = prepared.tet_scalars[active]

            with clock.phase("sampling"):
                sample_scalar = np.full((num_pixels, last_slot - first_slot), np.nan)
                open_mask = accum_alpha < config.early_termination_alpha
                self._sample_pass_reference(
                    camera, vertices, lo, size, scalars, first_slot, last_slot, sample_scalar, open_mask
                )

            with clock.phase("compositing"):
                samples_with_data += self._composite_rows(
                    sample_scalar, accum_rgb, accum_alpha, prepared.step_length, None
                )

        features.active_pixels = int(np.count_nonzero(accum_alpha > 0.0))
        features.samples_per_ray = samples_with_data / max(features.active_pixels, 1)
        features.cells_spanned = int(round(self.mesh.num_cells ** (1.0 / 3.0)))

        rgba = np.concatenate([accum_rgb, accum_alpha[:, None]], axis=1)
        written = np.flatnonzero(accum_alpha > 0.0)
        framebuffer.write_pixels(
            written, rgba[written], np.full(len(written), max(prepared.depth_min, 0.0))
        )
        return RenderResult(framebuffer, clock.seconds, features, technique="volume_unstructured")

    # -- sampling (fragment-sorted fast path) -----------------------------------------------
    @staticmethod
    def _inverse_barycentric(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inverse barycentric matrices: columns are the edge vectors from v0."""
        v0 = vertices[:, 0]
        edges = np.stack([vertices[:, 1] - v0, vertices[:, 2] - v0, vertices[:, 3] - v0], axis=2)
        determinant = np.linalg.det(edges)
        valid = np.abs(determinant) > 1e-12
        inverse = np.zeros_like(edges)
        if np.any(valid):
            inverse[valid] = np.linalg.inv(edges[valid])
        return v0, inverse, valid

    def _sample_pass(
        self,
        vertices: np.ndarray,
        box_lo: np.ndarray,
        box_size: np.ndarray,
        tet_scalars: np.ndarray,
        face_planes: np.ndarray,
        face_heights: np.ndarray,
        first_slot: int,
        last_slot: int,
        sample_scalar: np.ndarray,
        open_mask: np.ndarray,
        window: tuple[int, int, int, int],
    ) -> None:
        """Fragment-sorted sampler: fill the pass's sample buffer.

        Enumerates, row by row of each active tet's pixel box, only the pixel
        columns the padded x-span of the tet's projected silhouette can
        cover, computes the analytic slot span of every surviving column from
        the tet's inward face planes, emits one fragment per in-span (pixel,
        slot) candidate, re-runs the exact barycentric inside test on the
        fragments, and resolves per-cell collisions with one combined sort +
        segmented argmin over the whole pass.

        ``window`` is the lane rectangle ``(x0, y0, w, h)`` the boxes lie in:
        row ``i`` of ``sample_scalar`` and ``open_mask`` is its
        rectangle-local pixel ``i``.  ``open_mask`` flags the pixels still
        accepting samples (resident, non-opaque lanes on the engine path).
        """
        v0, inverse, valid = self._inverse_barycentric(vertices)
        box_w, box_h = box_size.T

        columns = box_w * box_h * valid
        order = np.flatnonzero(columns > 0)
        fragments: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for start, end in chunk_ranges(columns[order], PAIR_CHUNK):
            chunk = order[start:end]
            self._fragment_chunk(
                chunk,
                vertices,
                box_lo,
                box_w,
                box_h,
                v0,
                inverse,
                tet_scalars,
                face_planes,
                face_heights,
                first_slot,
                last_slot,
                sample_scalar.shape[1],
                open_mask,
                fragments,
                window=window,
            )
        if fragments:
            self._resolve_fragments(fragments, len(vertices), sample_scalar)

    def _fragment_chunk(
        self,
        chunk: np.ndarray,
        vertices: np.ndarray,
        lo_xy: np.ndarray,
        box_w: np.ndarray,
        box_h: np.ndarray,
        v0: np.ndarray,
        inverse: np.ndarray,
        tet_scalars: np.ndarray,
        face_planes: np.ndarray,
        face_heights: np.ndarray,
        first_slot: int,
        last_slot: int,
        slots_per_row: int,
        open_mask: np.ndarray,
        fragments: list,
        *,
        window: tuple[int, int, int, int],
    ) -> None:
        """Emit the surviving (cell index, tet order, scalar) fragments of one chunk."""
        # Silhouette cover: expand each tet to its box rows and keep, per row,
        # the box columns inside the padded x-span of the projected hull.
        rows_per_tet = box_h[chunk]
        tet_of_row = np.repeat(np.arange(len(chunk)), rows_per_tet)
        row_y = lo_xy[chunk[tet_of_row], 1] + segment_local_indices(rows_per_tet)
        span_lo, span_hi = self._row_spans(vertices[chunk, :, :2], tet_of_row, row_y + 0.5)
        box_lo = lo_xy[chunk[tet_of_row], 0]
        box_hi = box_lo + box_w[chunk[tet_of_row]]
        # Pixel centers px + 0.5 inside [span_lo, span_hi], clipped to the box
        # (the clip also bounds the floats so the integer casts are safe).
        first_px = np.clip(np.ceil(span_lo - 0.5), box_lo, box_hi).astype(np.int64)
        stop_px = np.clip(np.floor(span_hi - 0.5) + 1.0, box_lo, box_hi).astype(np.int64)
        counts = np.maximum(stop_px - first_px, 0)
        if not counts.any():
            return
        row_of_pair = np.repeat(np.arange(len(row_y)), counts)
        tids = chunk[tet_of_row[row_of_pair]]
        px = first_px[row_of_pair] + segment_local_indices(counts)
        py = row_y[row_of_pair]
        x0, y0, window_width, _ = window
        pixel_flat = (py - y0) * window_width + (px - x0)

        # Early termination: drop columns on already-opaque pixels (a gather
        # through the dpp choke point, counted as sampling work).
        open_pixel = gather(open_mask, pixel_flat)
        if not np.any(open_pixel):
            return
        tids = tids[open_pixel]
        px, py, pixel_flat = px[open_pixel], py[open_pixel], pixel_flat[open_pixel]

        # Analytic slot span of each column (a map over the columns): each
        # inward face plane is linear in the slot coordinate at the fixed
        # pixel center, so the tet's depth interval along the column is the
        # intersection of four half-lines.
        slot_start, slot_count = map_field(
            lambda planes, heights, x, y: self._column_spans(
                planes, heights, x, y, first_slot, last_slot
            ),
            face_planes[tids],
            face_heights[tids],
            px + 0.5,
            py + 0.5,
        )
        has_span = slot_count > 0
        if not np.any(has_span):
            return
        tids = tids[has_span]
        px, py, pixel_flat = px[has_span], py[has_span], pixel_flat[has_span]
        slot_start, slot_count = slot_start[has_span], slot_count[has_span]

        # Expand the spans into per-(pixel, slot) fragments, at most
        # SAMPLE_BUDGET of them at a time, and re-run the reference sampler's
        # exact inside test so the accepted set -- and with it the image --
        # matches the brute-force enumeration bit for bit (the span is
        # conservative, never exact).
        for lo, hi in chunk_ranges(slot_count, budget.SAMPLE_BUDGET):
            column_of = lo + np.repeat(np.arange(hi - lo), slot_count[lo:hi])
            slot = slot_start[column_of] + segment_local_indices(slot_count[lo:hi])
            fragment_tids = tids[column_of]
            sample_position = np.column_stack([px[column_of] + 0.5, py[column_of] + 0.5, slot + 0.5])
            offset = sample_position - v0[fragment_tids]
            barycentric = np.einsum("nij,nj->ni", inverse[fragment_tids], offset)
            b0 = 1.0 - barycentric.sum(axis=1)
            inside = (barycentric >= -1e-9).all(axis=1) & (b0 >= -1e-9)
            if not np.any(inside):
                continue
            fragment_tids = fragment_tids[inside]
            barycentric = barycentric[inside]
            values = (
                b0[inside] * tet_scalars[fragment_tids, 0]
                + barycentric[:, 0] * tet_scalars[fragment_tids, 1]
                + barycentric[:, 1] * tet_scalars[fragment_tids, 2]
                + barycentric[:, 2] * tet_scalars[fragment_tids, 3]
            )
            cell = pixel_flat[column_of[inside]] * slots_per_row + (slot[inside] - first_slot)
            fragments.append((cell, fragment_tids, values))

    @staticmethod
    def _row_spans(
        tet_xy: np.ndarray, tet_of_row: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Padded x-span of each row's projected tet hull at pixel-center height ``y``.

        ``tet_xy`` holds the chunk's projected vertices ``(n, 4, 2)`` and
        ``tet_of_row`` the chunk-local tet of every row.  The hull of four
        points meets a horizontal band in a convex piece whose x-extremes lie
        on its six edges, so the span is the min/max of the edges' x over the
        band ``[y - pad, y + pad]`` (clamped to each edge's y-range), widened
        by ``pad`` again.  ``pad`` is the span slack scaled by the tet's
        extent: it covers the exact test's ``-1e-9`` barycentric tolerance
        and rounding, also for an edge lying on a pixel-center row.  A row
        whose band misses the tet gets the empty span ``(inf, -inf)``.
        """
        # Per-tet edge table (low x, low y, high x, high y, slope), every edge
        # oriented upward so it spans [low y, high y].  It is edge-major and
        # contiguous, so the per-row reductions run over the six edges
        # elementwise rather than as strided short reductions.
        xs = np.ascontiguousarray(tet_xy[:, :, 0].T)  # (4, n)
        ys = np.ascontiguousarray(tet_xy[:, :, 1].T)
        ax, bx = xs[_HULL_EDGES[:, 0]], xs[_HULL_EDGES[:, 1]]  # (6, n)
        ay, by = ys[_HULL_EDGES[:, 0]], ys[_HULL_EDGES[:, 1]]
        flip = ay > by
        # A NaN span (non-finite projected vertices) keeps its whole box row,
        # so the caller's integer casts stay defined.
        with np.errstate(all="ignore"):
            low_x, high_x = np.where(flip, bx, ax), np.where(flip, ax, bx)
            low_y, high_y = np.where(flip, by, ay), np.where(flip, ay, by)
            rise = high_y - low_y
            slope = np.where(rise > 0.0, (high_x - low_x) / rise, 0.0)
            extent = np.maximum(np.abs(high_x - low_x), rise).max(axis=0)
            table = np.concatenate([low_x, low_y, high_x, high_y, slope]).take(tet_of_row, axis=1)
            low_x, low_y, high_x, high_y, slope = table.reshape(5, 6, -1)
            pad = _SPAN_SLACK * (1.0 + extent[tet_of_row])
            band_lo = np.maximum(low_y, y - pad)
            band_hi = np.minimum(high_y, y + pad)
            hit = band_lo <= band_hi
            # Each end is interpolated from its nearer vertex, so a horizontal
            # edge (slope 0) spans both of its endpoints' x.
            x_low = low_x + (band_lo - low_y) * slope
            x_high = high_x - (high_y - band_hi) * slope
            span_lo = np.where(hit, np.minimum(x_low, x_high), np.inf).min(axis=0) - pad
            span_hi = np.where(hit, np.maximum(x_low, x_high), -np.inf).max(axis=0) + pad
        return np.where(np.isnan(span_lo), -np.inf, span_lo), np.where(np.isnan(span_hi), np.inf, span_hi)

    @staticmethod
    def _column_spans(
        planes: np.ndarray,
        heights: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        first_slot: int,
        last_slot: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """First slot index and slot count of each column's conservative span.

        ``planes``/``heights`` are the per-column tet face planes ``(n, 4, 4)``
        and clearances ``(n, 4)``; ``x``/``y`` the pixel centers.  A plane
        ``(a, b, c, d)`` restricted to the column is ``base + c * s`` with
        ``base = a*x + b*y + d``; the span is the set of slot centers
        ``s = j + 0.5`` with ``base + c*s >= -slack`` for all four faces,
        clipped to the pass's ``[first_slot, last_slot)`` slot range.  The
        work runs face-major, ``(4, n)``, so the reductions over the four
        faces are elementwise.
        """
        a, b, slope, d = np.ascontiguousarray(planes.transpose(2, 1, 0))
        base = a * x + b * y + d
        slack = _SPAN_SLACK * (1.0 + heights.T)
        rising = slope > 0.0
        falling = slope < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = -(base + slack) / np.where(slope == 0.0, np.inf, slope)
        span_lo = np.where(rising, bound, -np.inf).max(axis=0)
        span_hi = np.where(falling, bound, np.inf).min(axis=0)
        # A slot-parallel face decides the whole column at once.
        dead = (~rising & ~falling & (base < -slack)).any(axis=0)
        # Slot centers j + 0.5 inside [span_lo, span_hi], clipped to the pass
        # (the clip also bounds the floats so the integer casts are safe).
        start = np.clip(np.ceil(span_lo - 0.5), first_slot, last_slot).astype(np.int64)
        stop = np.clip(np.floor(span_hi - 0.5), first_slot - 1, last_slot - 1).astype(np.int64)
        count = np.where(dead, 0, np.maximum(stop - start + 1, 0))
        return start, count

    def _resolve_fragments(
        self, fragments: list, num_tets: int, sample_scalar: np.ndarray
    ) -> None:
        """Deterministic collision resolution over one pass's fragments.

        One combined sort on ``cell * num_tets + tet order`` groups the
        fragments of every sample-buffer cell contiguously (the key is unique,
        so the unstable argsort is deterministic), and a segmented argmin
        keeps the highest-ordered tet per cell -- the same winner the
        reference loop's in-order overwrite produces -- independent of how
        :data:`PAIR_CHUNK` split the work.  The winners scatter into the buffer.
        """
        cell = np.concatenate([f[0] for f in fragments])
        tet_order = np.concatenate([f[1] for f in fragments])
        values = np.concatenate([f[2] for f in fragments])
        sort_key = cell * np.int64(num_tets) + tet_order
        order = np.argsort(sort_key)
        cell_sorted = cell[order]
        new_cell = np.ones(len(order), dtype=bool)
        new_cell[1:] = cell_sorted[1:] != cell_sorted[:-1]
        starts = np.flatnonzero(new_cell)
        tet_sorted = tet_order[order]
        winners = segmented_argmin((num_tets - 1 - tet_sorted).astype(np.float64), starts, tet_sorted)
        scatter(
            gather(values, order[winners]),
            cell_sorted[starts],
            sample_scalar.reshape(-1),
        )

    # -- sampling (seed reference path) -----------------------------------------------------
    def _sample_pass_reference(
        self,
        camera: Camera,
        vertices: np.ndarray,
        box_lo: np.ndarray,
        box_size: np.ndarray,
        tet_scalars: np.ndarray,
        first_slot: int,
        last_slot: int,
        sample_scalar: np.ndarray,
        open_mask: np.ndarray,
    ) -> None:
        """Seed sampler: visit every candidate of each tet's 3D screen box.

        ``open_mask`` flags the pixels still accepting samples (below-threshold
        pixels on the reference path).
        """
        v0, inverse, valid = self._inverse_barycentric(vertices)
        box_w, box_h = box_size.T
        lo_slot = np.clip(np.floor(vertices[..., 2].min(axis=1)).astype(np.int64), first_slot, last_slot - 1)
        hi_slot = np.clip(np.ceil(vertices[..., 2].max(axis=1)).astype(np.int64), first_slot, last_slot)

        # Sub-slot tets still get one candidate sample (box_d >= 1, matching
        # the >= 1 pixel columns of the tets' boxes) so coarse meshes do not
        # leave holes in the image.
        box_d = np.maximum(hi_slot - lo_slot, 1)
        footprint = box_w * box_h * box_d * valid
        order = np.flatnonzero(footprint > 0)
        for start, end in chunk_ranges(footprint[order], PAIR_CHUNK):
            chunk = order[start:end]
            self._sample_chunk(
                chunk,
                box_lo,
                box_w,
                box_h,
                lo_slot,
                box_d,
                v0,
                inverse,
                tet_scalars,
                first_slot,
                sample_scalar,
                open_mask,
                image_width=camera.width,
            )

    def _sample_chunk(
        self,
        chunk: np.ndarray,
        lo_xy: np.ndarray,
        box_w: np.ndarray,
        box_h: np.ndarray,
        lo_slot: np.ndarray,
        box_d: np.ndarray,
        v0: np.ndarray,
        inverse: np.ndarray,
        tet_scalars: np.ndarray,
        first_slot: int,
        sample_scalar: np.ndarray,
        open_mask: np.ndarray,
        *,
        image_width: int,
    ) -> None:
        """Evaluate the candidate samples of one chunk of tets.

        ``image_width`` is required (and keyword-only): it folds ``(px, py)``
        into the flat pixel index, and a caller omitting it used to silently
        alias every row onto the first (``py * 0 + px``).
        """
        counts = box_w[chunk] * box_h[chunk] * box_d[chunk]
        tet_of_pair = np.repeat(np.arange(len(chunk)), counts)
        local = segment_local_indices(counts)
        w_rep = np.repeat(box_w[chunk], counts)
        h_rep = np.repeat(box_h[chunk], counts)
        # local index -> (dx, dy, dslot)
        dx = local % w_rep
        dy = (local // w_rep) % h_rep
        dslot = local // (w_rep * h_rep)

        tids = chunk[tet_of_pair]
        px = lo_xy[tids, 0] + dx
        py = lo_xy[tids, 1] + dy
        slot = lo_slot[tids] + dslot
        pixel_flat = py * image_width + px

        # Skip samples on pixels that are already opaque (early termination);
        # consulting per-pixel state per candidate pair is a gather, so it
        # runs through the dpp choke point and is counted as sampling work.
        open_pixel = gather(open_mask, pixel_flat)
        if not np.any(open_pixel):
            return
        tids = tids[open_pixel]
        px, py, slot, pixel_flat = px[open_pixel], py[open_pixel], slot[open_pixel], pixel_flat[open_pixel]

        sample_position = np.column_stack([px + 0.5, py + 0.5, slot + 0.5])
        offset = sample_position - v0[tids]
        barycentric = np.einsum("nij,nj->ni", inverse[tids], offset)
        b0 = 1.0 - barycentric.sum(axis=1)
        inside = (
            (barycentric >= -1e-9).all(axis=1)
            & (b0 >= -1e-9)
        )
        if not np.any(inside):
            return

        tids = tids[inside]
        pixel_flat = pixel_flat[inside]
        slot = slot[inside]
        barycentric = barycentric[inside]
        b0 = b0[inside]
        values = (
            b0 * tet_scalars[tids, 0]
            + barycentric[:, 0] * tet_scalars[tids, 1]
            + barycentric[:, 1] * tet_scalars[tids, 2]
            + barycentric[:, 2] * tet_scalars[tids, 3]
        )
        # Writing interpolated scalars into the sample buffer is the scatter
        # of Algorithm 2's sampling phase (last write wins within a chunk).
        slots_per_row = sample_scalar.shape[1]
        scatter(
            values,
            pixel_flat * slots_per_row + (slot - first_slot),
            sample_scalar.reshape(-1),
        )

    # -- compositing ---------------------------------------------------------------------------
    def _composite_rows(
        self,
        sample_scalar: np.ndarray,
        accum_rgb: np.ndarray,
        accum_alpha: np.ndarray,
        step_length: float,
        live: np.ndarray | None,
        lane_ids: np.ndarray | None = None,
    ) -> int:
        """Front-to-back composite sample rows into the matching accumulator rows.

        Accumulator row ``i`` takes sample row ``lane_ids[i]`` (row ``i``
        when ``lane_ids`` is None).  ``live`` masks which rows may update
        their opacity (engine riders -- retired but not yet compacted lanes
        -- must stay frozen); ``None`` updates every row (the reference
        path's full-width behavior).  Rows run in blocks of at most
        ``SAMPLE_BUDGET`` samples; returns the number of samples with data.
        """
        block = max(1, budget.SAMPLE_BUDGET // sample_scalar.shape[1])
        with_data = 0
        empty = []
        for first in range(0, len(accum_alpha), block):
            rows = slice(first, first + block)
            if lane_ids is None:
                samples = sample_scalar[rows]
            else:
                # Gather from the span of rows the block reads, so the dpp
                # traffic counts the rows moved, not the buffer once a block.
                ids = lane_ids[rows]
                low = int(ids.min())
                samples = gather(sample_scalar[low : int(ids.max()) + 1], ids - low)
            taken = self._composite_block(
                samples,
                accum_rgb[rows],
                accum_alpha[rows],
                step_length,
                None if live is None else live[rows],
            )
            with_data += taken
            if not taken:
                empty.append(rows)
        if with_data:
            # Once any row has data, a row without any still takes the opacity
            # update with transparency 1: ``1 - (1 - a)``, which is not always
            # ``a`` in floating point, so it is kept to keep the bits.
            for rows in empty:
                alpha = accum_alpha[rows]
                merged = 1.0 - (1.0 - alpha)
                alpha[:] = merged if live is None else np.where(live[rows], merged, alpha)
        return with_data

    def _composite_block(
        self,
        sample_scalar: np.ndarray,
        accum_rgb: np.ndarray,
        accum_alpha: np.ndarray,
        step_length: float,
        live: np.ndarray | None,
    ) -> int:
        """Composite one block of rows in place; returns its samples with data."""
        tf = self.transfer_function
        has_sample = ~np.isnan(sample_scalar)
        with_data = int(np.count_nonzero(has_sample))
        if not with_data:
            return 0
        scalars = np.where(has_sample, sample_scalar, 0.0)
        rgb, alpha = tf.sample(scalars, step_length=step_length)
        alpha = np.where(has_sample, alpha, 0.0)
        transparency = np.cumprod(1.0 - alpha, axis=1)
        leading = np.concatenate([np.ones((len(alpha), 1)), transparency[:, :-1]], axis=1)
        weights = (1.0 - accum_alpha)[:, None] * leading * alpha
        accum_rgb += np.einsum("ij,ijk->ik", weights, rgb)
        merged = 1.0 - (1.0 - accum_alpha) * transparency[:, -1]
        if live is None:
            accum_alpha[:] = merged
        else:
            accum_alpha[:] = np.where(live, merged, accum_alpha)
        return with_data

    def visibility_depth(self, camera: Camera) -> float:
        """Distance from the camera to the mesh center (for visibility ordering)."""
        return camera.visibility_distance(self.mesh.bounds)

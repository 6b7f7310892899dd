"""Structured-grid volume renderer (ray caster) on the frontier kernel engine.

This is the Chapter V volume renderer: "a ray caster for regular grids".  Each
pixel casts a ray through the uniform grid; samples are taken at regular steps
between the ray's entry and exit points, classified through the transfer
function, and composited front to back with early ray termination.

Since the frontier refactor the hot loop is a
:class:`repro.dpp.FrontierKernel`: every active ray is a lane in a
:class:`repro.dpp.FrontierLanes` SoA (origin, direction, entry/exit span,
color/opacity accumulators, sample counter), one engine step composites one
slab of samples, and a ray retires when it exhausts its ``[near, far)`` span
or crosses the early-termination opacity -- at which point the
:class:`repro.dpp.FrontierEngine` compacts it out of the frontier, so the
remaining slabs touch only surviving rays.  Sample evaluation only runs for
the in-span samples of each slab (the old monolithic loop evaluated the full
``rays x slab`` rectangle out to the *longest* ray's span) and is routed
through :func:`repro.dpp.primitives.map_field`, so the primitive-level
instrumentation (:class:`repro.dpp.instrument.OpCounters`) finally observes
volume sampling traffic.

The performance model (Eq. 5.3) splits the cost into a cell-frequency term
(``c0 * AP * CS`` -- locating and loading cell data) and a sample-frequency
term (``c1 * AP * SPR`` -- interpolation and compositing); the renderer
reports the observed ``AP``, ``SPR``, and ``CS`` values accordingly.

:meth:`StructuredVolumeRenderer.render_reference` keeps the pre-frontier
monolithic numpy loop as a differential reference (the volume analogue of
``brute_force_closest_hit``); the engine path must match it to within
floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dpp.frontier import FrontierEngine, FrontierLanes
from repro.dpp.primitives import map_field
from repro.geometry.aabb import ray_box_intervals
from repro.geometry.mesh import UniformGrid
from repro.geometry.transforms import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.rays import RayEmitter
from repro.rendering.result import ObservedFeatures, PhaseClock, RenderResult
from repro.rendering.volume import budget
from repro.rendering.volume.transfer_function import TransferFunction

__all__ = ["StructuredVolumeConfig", "StructuredVolumeRenderer"]

#: Depth samples composited per vectorized slab (one frontier engine step).
#: It bounds the slab's depth only: the lanes of a slab run in blocks of at
#: most :data:`~repro.rendering.volume.budget.SAMPLE_BUDGET` samples, which
#: is what bounds memory use.  Read at call time, so tests monkeypatch it.
SAMPLE_CHUNK = 32


@dataclass
class StructuredVolumeConfig:
    """Tunable parameters of the structured volume renderer.

    Attributes
    ----------
    samples_in_depth:
        Number of sample steps across the volume diagonal (the study uses
        1000 at full scale; the default here is sized for the reproduction's
        smaller images).
    early_termination_alpha:
        Accumulated opacity at which a ray stops sampling.
    """

    samples_in_depth: int = 200
    early_termination_alpha: float = 0.98

    def __post_init__(self) -> None:
        if self.samples_in_depth < 1:
            raise ValueError("samples_in_depth must be positive")
        if not 0.0 < self.early_termination_alpha <= 1.0:
            raise ValueError("early_termination_alpha must be in (0, 1]")


class _Trilinear:
    """Trilinear point-field interpolation with flat-index gathers."""

    def __init__(self, grid: UniformGrid, volume: np.ndarray) -> None:
        nx, ny, nz = grid.dims
        self.nx, self.ny, self.nz = nx, ny, nz
        self.origin = grid.origin
        self.spacing = grid.spacing
        self.flat = np.ascontiguousarray(volume).reshape(-1)

    def sample_grid_coords(self, cx: np.ndarray, cy: np.ndarray, cz: np.ndarray) -> np.ndarray:
        """Interpolate at grid-space coordinates given as flat component arrays.

        Operating on contiguous per-component arrays avoids the strided
        column views of an ``(n, 3)`` position matrix in the hot loop.
        """
        nx, ny = self.nx, self.ny
        cx = np.clip(cx, 0.0, nx - 1.000001)
        cy = np.clip(cy, 0.0, ny - 1.000001)
        cz = np.clip(cz, 0.0, self.nz - 1.000001)
        ix = cx.astype(np.int64)
        iy = cy.astype(np.int64)
        iz = cz.astype(np.int64)
        fx = cx - ix
        fy = cy - iy
        fz = cz - iz
        # Flat row-major (z, y, x) addressing replaces triple fancy indexing;
        # the fetched corners and the interpolation arithmetic are identical.
        index = (iz * ny + iy) * nx + ix
        flat = self.flat
        zstride = nx * ny
        c000 = flat.take(index)
        c100 = flat.take(index + 1)
        c010 = flat.take(index + nx)
        c110 = flat.take(index + nx + 1)
        c001 = flat.take(index + zstride)
        c101 = flat.take(index + zstride + 1)
        c011 = flat.take(index + zstride + nx)
        c111 = flat.take(index + zstride + nx + 1)
        omx = 1 - fx
        omy = 1 - fy
        c00 = c000 * omx + c100 * fx
        c10 = c010 * omx + c110 * fx
        c01 = c001 * omx + c101 * fx
        c11 = c011 * omx + c111 * fx
        c0 = c00 * omy + c10 * fy
        c1 = c01 * omy + c11 * fy
        return c0 * (1 - fz) + c1 * fz

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        """Interpolate the field at world ``positions`` of shape ``(n, 3)``."""
        coords = (positions - self.origin[None, :]) / self.spacing[None, :]
        return self.sample_grid_coords(
            np.ascontiguousarray(coords[:, 0]),
            np.ascontiguousarray(coords[:, 1]),
            np.ascontiguousarray(coords[:, 2]),
        )


class _SlabSampleKernel:
    """The structured ray caster's slab loop as a frontier kernel.

    One step takes ``chunk`` (:data:`SAMPLE_CHUNK`) depth samples for every
    resident lane, classifies the in-span ones through the transfer function,
    and composites them front to back into the per-lane accumulators.  Early ray termination
    and span exhaustion are expressed as lane retirement, turning both into
    engine compaction instead of per-slab fancy-indexed ``alive`` subsets.
    """

    output_fields = ("accum_rgb", "accum_alpha", "samples")

    def __init__(
        self,
        trilinear: _Trilinear,
        transfer_function: TransferFunction,
        step_length: float,
        chunk: int,
        max_samples: int,
        early_termination_alpha: float,
    ) -> None:
        self.trilinear = trilinear
        self.transfer_function = transfer_function
        self.step_length = step_length
        self.chunk = chunk
        self.max_samples = max_samples
        self.early_termination_alpha = early_termination_alpha
        self.start = 0

    def _classify(self, cx: np.ndarray, cy: np.ndarray, cz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interpolate + transfer-function lookup for one batch of samples."""
        scalars = self.trilinear.sample_grid_coords(cx, cy, cz)
        return self.transfer_function.sample(scalars, step_length=self.step_length)

    def step(self, lanes: FrontierLanes) -> np.ndarray:
        s = lanes.state
        n = len(lanes)
        count = min(self.chunk, self.max_samples - self.start)
        if count <= 0:
            return np.ones(n, dtype=bool)
        offsets = (self.start + np.arange(count) + 0.5) * self.step_length
        live = ~lanes.retired if lanes.retired.any() else None
        # Lanes are independent, so the slab runs in row blocks that hold at
        # most SAMPLE_BUDGET samples: the same per-lane arithmetic with
        # temporaries bounded by the budget instead of by lanes x slab.
        block = max(1, budget.SAMPLE_BUDGET // count)
        for first in range(0, n, block):
            rows = slice(first, first + block)
            self._composite_block(
                {name: array[rows] for name, array in s.items()},
                offsets,
                None if live is None else live[rows],
            )
        self.start += count
        # Retirement: opacity crossed the early-termination threshold, or no
        # future sample of this lane can land inside its [near, far) span.
        exhausted = s["near"] + (self.start + 0.5) * self.step_length >= s["far"]
        return (s["accum_alpha"] >= self.early_termination_alpha) | exhausted

    def _composite_block(self, s: dict, offsets: np.ndarray, live: np.ndarray | None) -> None:
        """Composite one slab into a block of lanes; ``s`` holds views of their state.

        ``live`` masks the lanes that may take samples (retired riders must
        stay frozen); ``None`` when every lane is live.
        """
        accum_alpha = s["accum_alpha"]
        n = len(accum_alpha)
        count = len(offsets)
        t = s["near"][:, None] + offsets[None, :]
        inside = t < s["far"][:, None]
        if live is not None:
            inside &= live[:, None]
        sel = np.flatnonzero(inside.ravel())
        if not len(sel):
            return
        lane_of = sel // count
        t_sel = t.ravel().take(sel)
        cx = s["gox"].take(lane_of) + t_sel * s["gdx"].take(lane_of)
        cy = s["goy"].take(lane_of) + t_sel * s["gdy"].take(lane_of)
        cz = s["goz"].take(lane_of) + t_sel * s["gdz"].take(lane_of)
        # The interpolation + classification of every in-span sample runs
        # through the map primitive: the op-counter choke point observes
        # exactly SPR work, one element per sample taken.
        rgb_sel, alpha_sel = map_field(self._classify, cx, cy, cz)
        transmittance = np.full(n * count, 1.0)
        transmittance[sel] = 1.0 - alpha_sel
        transmittance = transmittance.reshape(n, count)
        # Front-to-back compositing across this slab of samples: the
        # weight of sample j is (remaining opacity) * (transparency
        # accumulated before j within the slab) * alpha_j, evaluated only
        # at the in-span samples.
        transparency = np.cumprod(transmittance, axis=1)
        leading = np.empty((n, count))
        leading[:, 0] = 1.0
        leading[:, 1:] = transparency[:, :-1]
        weight_sel = (
            (1.0 - accum_alpha).take(lane_of)
            * leading.ravel().take(sel)
            * alpha_sel
        )
        row_counts = inside.sum(axis=1)
        rows = np.flatnonzero(row_counts)
        seg_starts = np.zeros(len(rows), dtype=np.int64)
        np.cumsum(row_counts.take(rows)[:-1], out=seg_starts[1:])
        contrib = weight_sel[:, None] * rgb_sel
        s["accum_rgb"][rows] += np.add.reduceat(contrib, seg_starts, axis=0)
        merged = 1.0 - (1.0 - accum_alpha) * transparency[:, -1]
        accum_alpha[:] = merged if live is None else np.where(live, merged, accum_alpha)
        s["samples"] += row_counts


@dataclass
class StructuredVolumeRenderer:
    """Ray-casting volume renderer for :class:`~repro.geometry.mesh.UniformGrid` data."""

    grid: UniformGrid
    field_name: str
    transfer_function: TransferFunction | None = None
    config: StructuredVolumeConfig = field(default_factory=StructuredVolumeConfig)

    def __post_init__(self) -> None:
        if self.field_name not in self.grid.point_fields:
            raise KeyError(f"grid has no point field named {self.field_name!r}")
        if self.transfer_function is None:
            values = np.asarray(self.grid.point_fields[self.field_name])
            self.transfer_function = TransferFunction(
                scalar_range=(float(values.min()), float(values.max())),
                unit_distance=max(self.grid.bounds.diagonal / 100.0, 1e-12),
            )
        self._volume = self.grid.point_field_as_volume(self.field_name)
        self._trilinear_kernel = _Trilinear(self.grid, self._volume)

    # -- sampling helpers -----------------------------------------------------------
    def _ray_box_interval(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry/exit parameters of each ray with the grid bounds (clamped at 0).

        Delegates to the shared slab test in :mod:`repro.geometry.aabb`; the
        previous private copy here mapped tiny *negative* direction
        components to a *positive* huge reciprocal, producing wrong
        entry/exit intervals for grazing rays.
        """
        bounds = self.grid.bounds
        t_near, t_far = ray_box_intervals(origins, directions, bounds.low, bounds.high)
        return np.maximum(t_near, 0.0), t_far

    def _trilinear(self, positions: np.ndarray) -> np.ndarray:
        """Trilinearly interpolate the point field at world positions."""
        return self._trilinear_kernel(np.asarray(positions, dtype=np.float64))

    # -- main entry point -----------------------------------------------------------------
    def render(self, camera: Camera) -> RenderResult:
        """Volume render the grid from ``camera`` on the frontier engine."""
        config = self.config
        clock = PhaseClock("volume")
        framebuffer = Framebuffer(camera.width, camera.height)
        features = ObservedFeatures(objects=self.grid.num_cells)

        with clock.phase("ray_setup"):
            emitter = RayEmitter(camera)
            active_ids, origins, directions, near, far = emitter.emit_clipped(self.grid.bounds)

        n_active = len(active_ids)
        features.active_pixels = int(n_active)
        features.cells_spanned = int(max(self.grid.cell_dims))
        if n_active == 0:
            return RenderResult(framebuffer, clock.seconds, features, technique="volume")

        step = self.grid.bounds.diagonal / config.samples_in_depth

        with clock.phase("sampling"):
            max_samples = int(np.ceil((far - near).max() / step))
            kernel = _SlabSampleKernel(
                self._trilinear_kernel,
                self.transfer_function,
                step,
                SAMPLE_CHUNK,
                max_samples,
                config.early_termination_alpha,
            )
            # Per-lane ray state is carried in *grid-space* components (one
            # contiguous array per component), so each sample needs only a
            # fused multiply-add per axis to reach interpolation coordinates.
            grid_origin = self.grid.origin
            spacing = self.grid.spacing
            lanes = FrontierLanes(
                np.arange(n_active, dtype=np.int64),
                {
                    "gox": (origins[:, 0] - grid_origin[0]) / spacing[0],
                    "goy": (origins[:, 1] - grid_origin[1]) / spacing[1],
                    "goz": (origins[:, 2] - grid_origin[2]) / spacing[2],
                    "gdx": directions[:, 0] / spacing[0],
                    "gdy": directions[:, 1] / spacing[1],
                    "gdz": directions[:, 2] / spacing[2],
                    "near": near,
                    "far": far,
                    "accum_rgb": np.zeros((n_active, 3)),
                    "accum_alpha": np.zeros(n_active),
                    "samples": np.zeros(n_active, dtype=np.int64),
                },
            )
            outputs = {
                "accum_rgb": np.zeros((n_active, 3)),
                "accum_alpha": np.zeros(n_active),
                "samples": np.zeros(n_active, dtype=np.int64),
            }
            FrontierEngine().run(kernel, lanes, outputs)
            accum_rgb = outputs["accum_rgb"]
            accum_alpha = outputs["accum_alpha"]
        features.samples_per_ray = int(outputs["samples"].sum()) / max(n_active, 1)

        with clock.phase("compositing"):
            rgba = np.concatenate([accum_rgb, accum_alpha[:, None]], axis=1)
            depth = np.where(accum_alpha > 0.0, near, np.inf)
            framebuffer.write_pixels(active_ids, rgba, depth)
        return RenderResult(framebuffer, clock.seconds, features, technique="volume")

    def _trilinear_reference(self, positions: np.ndarray) -> np.ndarray:
        """The pre-refactor trilinear interpolator (triple fancy indexing),
        kept verbatim so :meth:`render_reference` times the original loop."""
        grid = self.grid
        nx, ny, nz = grid.dims
        coords = (positions - grid.origin[None, :]) / grid.spacing[None, :]
        coords[:, 0] = np.clip(coords[:, 0], 0.0, nx - 1.000001)
        coords[:, 1] = np.clip(coords[:, 1], 0.0, ny - 1.000001)
        coords[:, 2] = np.clip(coords[:, 2], 0.0, nz - 1.000001)
        i0 = coords.astype(np.int64)
        frac = coords - i0
        ix, iy, iz = i0[:, 0], i0[:, 1], i0[:, 2]
        fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
        volume = self._volume
        c000 = volume[iz, iy, ix]
        c100 = volume[iz, iy, ix + 1]
        c010 = volume[iz, iy + 1, ix]
        c110 = volume[iz, iy + 1, ix + 1]
        c001 = volume[iz + 1, iy, ix]
        c101 = volume[iz + 1, iy, ix + 1]
        c011 = volume[iz + 1, iy + 1, ix]
        c111 = volume[iz + 1, iy + 1, ix + 1]
        c00 = c000 * (1 - fx) + c100 * fx
        c10 = c010 * (1 - fx) + c110 * fx
        c01 = c001 * (1 - fx) + c101 * fx
        c11 = c011 * (1 - fx) + c111 * fx
        c0 = c00 * (1 - fy) + c10 * fy
        c1 = c01 * (1 - fy) + c11 * fy
        return c0 * (1 - fz) + c1 * fz

    def render_reference(self, camera: Camera) -> RenderResult:
        """Pre-frontier monolithic sampling loop, kept as the differential
        reference for the engine path (golden-image tests and the volume
        throughput benchmark's seed baseline)."""
        config = self.config
        clock = PhaseClock("volume")
        framebuffer = Framebuffer(camera.width, camera.height)
        features = ObservedFeatures(objects=self.grid.num_cells)

        with clock.phase("ray_setup"):
            pixel_ids = np.arange(camera.width * camera.height, dtype=np.int64)
            origins, directions = camera.generate_rays(pixel_ids)
            t_near, t_far = self._ray_box_interval(origins, directions)
            active = t_far > t_near

        active_ids = np.flatnonzero(active)
        features.active_pixels = int(len(active_ids))
        features.cells_spanned = int(max(self.grid.cell_dims))
        if len(active_ids) == 0:
            return RenderResult(framebuffer, clock.seconds, features, technique="volume")

        step = self.grid.bounds.diagonal / config.samples_in_depth
        tf = self.transfer_function

        with clock.phase("sampling"):
            origins = origins[active_ids]
            directions = directions[active_ids]
            near = t_near[active_ids]
            far = t_far[active_ids]
            max_samples = int(np.ceil((far - near).max() / step))
            accum_rgb = np.zeros((len(active_ids), 3))
            accum_alpha = np.zeros(len(active_ids))
            samples_taken = 0
            alive = np.arange(len(active_ids))
            for start in range(0, max_samples, SAMPLE_CHUNK):
                if len(alive) == 0:
                    break
                count = min(SAMPLE_CHUNK, max_samples - start)
                offsets = (start + np.arange(count) + 0.5) * step
                t = near[alive][:, None] + offsets[None, :]
                inside = t < far[alive][:, None]
                if not np.any(inside):
                    break
                positions = (
                    origins[alive][:, None, :] + t[..., None] * directions[alive][:, None, :]
                ).reshape(-1, 3)
                scalars = self._trilinear_reference(positions).reshape(len(alive), count)
                rgb, alpha = tf.sample(scalars, step_length=step)
                alpha = np.where(inside, alpha, 0.0)
                samples_taken += int(inside.sum())
                # Front-to-back compositing across this slab of samples.
                transparency = np.cumprod(1.0 - alpha, axis=1)
                leading = np.concatenate(
                    [np.ones((len(alive), 1)), transparency[:, :-1]], axis=1
                )
                weights = (1.0 - accum_alpha[alive])[:, None] * leading * alpha
                accum_rgb[alive] += np.einsum("ij,ijk->ik", weights, rgb)
                accum_alpha[alive] = 1.0 - (1.0 - accum_alpha[alive]) * transparency[:, -1]
                # Early ray termination between slabs.
                alive = alive[accum_alpha[alive] < config.early_termination_alpha]
        features.samples_per_ray = samples_taken / max(len(active_ids), 1)

        with clock.phase("compositing"):
            rgba = np.concatenate([accum_rgb, accum_alpha[:, None]], axis=1)
            depth = np.where(accum_alpha > 0.0, near, np.inf)
            framebuffer.write_pixels(active_ids, rgba, depth)
        return RenderResult(framebuffer, clock.seconds, features, technique="volume")

    def visibility_depth(self, camera: Camera) -> float:
        """Distance from the camera to the volume center (for visibility ordering)."""
        return camera.visibility_distance(self.grid.bounds)

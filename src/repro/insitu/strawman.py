"""The batch in situ interface: Open / Publish / Execute / Close (Chapter IV).

:class:`Strawman` is the reproduction of the paper's light-weight in situ
mini-app.  A simulation (or each simulated MPI rank of one) describes its mesh
with the blueprint conventions, publishes the description, and hands Strawman
a list of actions; Strawman converts the descriptions to concrete meshes,
renders each rank's data with the requested renderer, composites the per-rank
images sort-last, and saves or returns the final image.

The action vocabulary mirrors the paper's example listings::

    actions = ConduitNode()
    add = actions.append()
    add["action"] = "AddPlot"
    add["var"] = "e"
    add["renderer"] = "raytrace"          # raytrace | raster | volume
    draw = actions.append()
    draw["action"] = "DrawPlots"
    save = actions.append()
    save["action"] = "SaveImage"
    save["fileName"] = "image0001"
    save["width"] = 256
    save["height"] = 256
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.compositing import CompositeResult, Compositor
from repro.geometry.aabb import AABB, aabb_union
from repro.geometry.mesh import (
    Mesh,
    RectilinearGrid,
    UniformGrid,
    UnstructuredHexMesh,
    UnstructuredTetMesh,
)
from repro.geometry.tetra import hex_to_tets
from repro.geometry.transforms import Camera
from repro.insitu.blueprint import node_to_mesh, validate_mesh_node
from repro.insitu.conduit import ConduitNode
from repro.insitu.imageio import write_ppm
from repro.rendering import (
    Renderer,
    RenderResult,
    StructuredVolumeRenderer,
    UnstructuredVolumeRenderer,
    make_renderer,
)
from repro.rendering.framebuffer import Framebuffer
from repro.techniques import Technique, get_technique
from repro.util.timing import Timer

__all__ = ["StrawmanOptions", "Strawman"]


@dataclass
class StrawmanOptions:
    """Options passed to :meth:`Strawman.open`.

    Attributes
    ----------
    num_ranks:
        Number of simulated MPI ranks that will publish data.
    output_directory:
        Where ``SaveImage`` actions write their PPM files.
    compositing_algorithm:
        ``"radix-k"`` (default), ``"binary-swap"``, or ``"direct-send"``.
    default_width / default_height:
        Image size when an action does not specify one.
    """

    num_ranks: int = 1
    output_directory: str = "."
    compositing_algorithm: str = "radix-k"
    default_width: int = 256
    default_height: int = 256


@dataclass
class _Plot:
    """One AddPlot action."""

    variable: str
    renderer: str = "raytrace"
    isovalue: float | None = None


@dataclass
class ExecutionRecord:
    """Timing and output of one Execute call (one visualization cycle)."""

    render_seconds: float
    composite_seconds: float
    results: list[RenderResult] = field(default_factory=list)
    composites: list[CompositeResult] = field(default_factory=list)
    framebuffer: Framebuffer | None = None
    saved_files: list[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.render_seconds + self.composite_seconds

    @property
    def bytes_exchanged(self) -> float:
        """Total simulated compositing traffic of the cycle (run-length wire bytes)."""
        return float(sum(composite.bytes_exchanged for composite in self.composites))

    @property
    def average_active_pixels(self) -> float:
        """Mean ``avg(AP)`` (Eq. 5.5) over the cycle's composites."""
        if not self.composites:
            return 0.0
        return float(np.mean([composite.average_active_pixels for composite in self.composites]))


class Strawman:
    """The in situ visualization mini-app."""

    def __init__(self) -> None:
        self._options: StrawmanOptions | None = None
        self._published: dict[int, ConduitNode] = {}
        self.history: list[ExecutionRecord] = []

    # -- lifecycle -------------------------------------------------------------------
    def open(self, options: StrawmanOptions | dict | None = None) -> None:
        """Initialize the interface (R2: batch usage, no user in the loop)."""
        if isinstance(options, dict):
            options = StrawmanOptions(**options)
        self._options = options or StrawmanOptions()
        if self._options.num_ranks < 1:
            raise ValueError("num_ranks must be positive")
        self._published.clear()
        self.history.clear()

    def close(self) -> None:
        """Release published data."""
        self._published.clear()
        self._options = None

    # -- data publication ---------------------------------------------------------------
    def publish(self, data: ConduitNode, rank: int = 0) -> None:
        """Publish one rank's mesh description (validated immediately)."""
        if self._options is None:
            raise RuntimeError("Strawman.open() must be called before publish()")
        if not 0 <= rank < self._options.num_ranks:
            raise IndexError(f"rank {rank} out of range for {self._options.num_ranks} ranks")
        problems = validate_mesh_node(data)
        if problems:
            raise ValueError("published data does not conform to the mesh blueprint: " + "; ".join(problems))
        self._published[rank] = data

    # -- execution ------------------------------------------------------------------------
    def execute(self, actions: ConduitNode) -> ExecutionRecord:
        """Run a list of actions against the currently published data."""
        if self._options is None:
            raise RuntimeError("Strawman.open() must be called before execute()")
        if len(self._published) != self._options.num_ranks:
            missing = self._options.num_ranks - len(self._published)
            raise RuntimeError(f"{missing} rank(s) have not published data yet")

        plots: list[_Plot] = []
        record = ExecutionRecord(render_seconds=0.0, composite_seconds=0.0)
        pending_draw = False
        width = self._options.default_width
        height = self._options.default_height

        for _, action_node in actions.children():
            action = action_node["action"]
            if action == "AddPlot":
                plots.append(
                    _Plot(
                        variable=action_node["var"],
                        renderer=action_node["renderer"] if "renderer" in action_node else "raytrace",
                        isovalue=action_node["isovalue"] if "isovalue" in action_node else None,
                    )
                )
            elif action == "DrawPlots":
                pending_draw = True
            elif action == "SaveImage":
                if "width" in action_node:
                    width = int(action_node["width"])
                if "height" in action_node:
                    height = int(action_node["height"])
                if pending_draw:
                    self._draw(plots, width, height, record)
                    pending_draw = False
                file_name = action_node["fileName"]
                record.saved_files.append(self._save(record, file_name))
            else:
                raise ValueError(f"unknown action {action!r}")

        if pending_draw:
            self._draw(plots, width, height, record)
        self.history.append(record)
        return record

    # -- internals ----------------------------------------------------------------------------
    def _meshes(self) -> dict[int, Mesh]:
        return {rank: node_to_mesh(node) for rank, node in sorted(self._published.items())}

    def _global_bounds(self, meshes: dict[int, Mesh]) -> AABB:
        return aabb_union([mesh.bounds for mesh in meshes.values()])

    def _draw(self, plots: list[_Plot], width: int, height: int, record: ExecutionRecord) -> None:
        """Render every plot over all ranks and composite the results."""
        if not plots:
            raise ValueError("DrawPlots requested but no AddPlot action was given")
        meshes = self._meshes()
        bounds = self._global_bounds(meshes)
        camera = Camera.framing_bounds(bounds, width, height)
        compositor = Compositor(self._options.compositing_algorithm)

        final: Framebuffer | None = None
        for plot in plots:
            technique = get_technique(plot.renderer)
            framebuffers: list[Framebuffer] = []
            visibility: list[float] = []
            with Timer() as render_timer:
                for rank, mesh in meshes.items():
                    renderer = self._make_renderer(mesh, plot.variable, technique)
                    result = renderer.render(camera)
                    record.results.append(result)
                    framebuffers.append(result.framebuffer)
                    visibility.append(renderer.visibility_depth(camera))
            record.render_seconds += render_timer.elapsed

            with Timer() as composite_timer:
                if technique.surface:
                    composite = compositor.composite(framebuffers, mode="depth")
                else:
                    composite = compositor.composite(framebuffers, mode="over", visibility_order=visibility)
            record.composite_seconds += composite_timer.elapsed
            record.composites.append(composite)
            layer = composite.framebuffer
            final = layer if final is None else layer.depth_composite(final)
        record.framebuffer = final

    def _make_renderer(self, mesh: Mesh, variable: str, technique: Technique) -> Renderer:
        """Build the :class:`~repro.rendering.Renderer` for one rank's mesh.

        Every renderer family satisfies the same protocol, so the draw loop
        renders and orders sub-images without per-family branches.
        """
        if technique.surface:
            return make_renderer(technique.name, self._as_hex_mesh(mesh), variable, 0)  # no sample count

        # Volume rendering follows the published mesh: structured grids use the
        # structured ray caster, everything else goes through hex -> tet decomposition.
        field_name, values = mesh.field(variable)
        if isinstance(mesh, UniformGrid) and field_name == "point":
            return StructuredVolumeRenderer(mesh, variable)
        if isinstance(mesh, RectilinearGrid) and field_name == "point":
            return StructuredVolumeRenderer(mesh.to_uniform_resampled(), variable)
        hex_mesh = self._as_hex_mesh(mesh)
        point_values = self._point_values(hex_mesh, variable)
        hex_mesh.add_point_field(variable + "_point", point_values)
        tets = hex_to_tets(hex_mesh)
        return UnstructuredVolumeRenderer(tets, variable + "_point")

    @staticmethod
    def _as_hex_mesh(mesh: Mesh) -> UnstructuredHexMesh:
        if isinstance(mesh, UnstructuredHexMesh):
            return mesh
        if isinstance(mesh, (UniformGrid, RectilinearGrid)):
            return UnstructuredHexMesh.from_structured(mesh)
        if isinstance(mesh, UnstructuredTetMesh):
            raise TypeError("surface extraction from tet meshes is not supported by Strawman")
        raise TypeError(f"unsupported mesh type {type(mesh).__name__}")

    @staticmethod
    def _point_values(mesh: UnstructuredHexMesh, variable: str) -> np.ndarray:
        """Point-centered copy of a field (averaging cell data when needed)."""
        association, values = mesh.field(variable)
        if association == "point":
            return np.asarray(values, dtype=np.float64)
        sums = np.zeros(mesh.num_points)
        counts = np.zeros(mesh.num_points)
        for corner in range(8):
            np.add.at(sums, mesh.connectivity[:, corner], np.asarray(values, dtype=np.float64))
            np.add.at(counts, mesh.connectivity[:, corner], 1.0)
        counts[counts == 0.0] = 1.0
        return sums / counts

    def _save(self, record: ExecutionRecord, file_name: str) -> str:
        """Write the most recent framebuffer as a PPM file."""
        if record.framebuffer is None:
            raise RuntimeError("SaveImage requested before any DrawPlots produced an image")
        os.makedirs(self._options.output_directory, exist_ok=True)
        if not file_name.endswith(".ppm"):
            file_name = file_name + ".ppm"
        return write_ppm(os.path.join(self._options.output_directory, file_name), record.framebuffer)

"""Triangle meshes and the external-faces operation.

The surface renderers (ray tracer and rasterizer) consume triangle soups with
a per-vertex scalar used for color-mapping.  The study generates its triangle
workloads with an *external faces* filter: the boundary quadrilaterals of a
hexahedral mesh, split into two triangles each.  For an N^3-cell block this
produces 12 N^2 triangles, which is exactly the term the configuration-to-
model-input mapping of Section 5.8 assumes for the Objects variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.aabb import AABB, triangle_aabbs
from repro.geometry.mesh import RectilinearGrid, StructuredGrid, UniformGrid, UnstructuredHexMesh

__all__ = ["TriangleMesh", "quad_to_triangles", "external_faces"]

# Local point indices of the six quadrilateral faces of a hexahedron, using
# the same VTK_HEXAHEDRON point ordering produced by the mesh classes.  Faces
# are wound so their normals point out of the cell.
_HEX_FACES = np.array(
    [
        [0, 3, 2, 1],  # -z (bottom)
        [4, 5, 6, 7],  # +z (top)
        [0, 1, 5, 4],  # -y
        [3, 7, 6, 2],  # +y
        [0, 4, 7, 3],  # -x
        [1, 2, 6, 5],  # +x
    ],
    dtype=np.int64,
)


@dataclass
class TriangleMesh:
    """A triangle soup with optional per-vertex scalars.

    Attributes
    ----------
    vertices:
        ``(nv, 3)`` float coordinates.
    triangles:
        ``(nt, 3)`` integer vertex indices.
    scalars:
        Optional ``(nv,)`` per-vertex scalar used for color mapping.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    scalars: np.ndarray | None = None
    _corners_cache: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (n, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (n, 3)")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise IndexError("triangle connectivity references a missing vertex")
        if self.scalars is not None:
            self.scalars = np.asarray(self.scalars, dtype=np.float64)
            if len(self.scalars) != len(self.vertices):
                raise ValueError("scalars must have one value per vertex")

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def bounds(self) -> AABB:
        if self.num_vertices == 0:
            return AABB(np.zeros(3), np.zeros(3))
        return AABB(self.vertices.min(axis=0), self.vertices.max(axis=0))

    def corners(self) -> np.ndarray:
        """Per-triangle corner coordinates, shape ``(nt, 3, 3)``.

        The expansion is cached on first use (the geometry is treated as
        immutable after construction): the ray tracer's secondary stages issue
        many ``any_hit`` queries against the same mesh, and rebuilding the
        corner array per query dominated their per-call overhead.  Call
        :meth:`invalidate_caches` after mutating ``vertices``/``triangles``
        in place.
        """
        if self._corners_cache is None:
            self._corners_cache = self.vertices[self.triangles]
        return self._corners_cache

    def invalidate_caches(self) -> None:
        """Drop derived-geometry caches after an in-place mutation."""
        self._corners_cache = None

    def centroids(self) -> np.ndarray:
        """Per-triangle centroids."""
        return self.corners().mean(axis=1)

    def triangle_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-triangle AABB corners as two ``(nt, 3)`` arrays."""
        return triangle_aabbs(self.vertices, self.triangles)

    def normals(self) -> np.ndarray:
        """Unit geometric normals per triangle (zero for degenerate triangles)."""
        corners = self.corners()
        normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        length = np.linalg.norm(normal, axis=1, keepdims=True)
        length[length == 0.0] = 1.0
        return normal / length

    def areas(self) -> np.ndarray:
        """Per-triangle areas."""
        corners = self.corners()
        cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def vertex_normals(self) -> np.ndarray:
        """Area-weighted per-vertex normals (used for smooth shading)."""
        corners = self.corners()
        face_normal = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        accum = np.zeros_like(self.vertices)
        for corner in range(3):
            np.add.at(accum, self.triangles[:, corner], face_normal)
        length = np.linalg.norm(accum, axis=1, keepdims=True)
        length[length == 0.0] = 1.0
        return accum / length

    def concatenate(self, other: "TriangleMesh") -> "TriangleMesh":
        """Append another mesh, offsetting its connectivity."""
        vertices = np.concatenate([self.vertices, other.vertices])
        triangles = np.concatenate([self.triangles, other.triangles + self.num_vertices])
        scalars = None
        if self.scalars is not None and other.scalars is not None:
            scalars = np.concatenate([self.scalars, other.scalars])
        return TriangleMesh(vertices, triangles, scalars)


def quad_to_triangles(quads: np.ndarray) -> np.ndarray:
    """Split ``(n, 4)`` quadrilateral connectivity into ``(2n, 3)`` triangles.

    Each quad ``[a, b, c, d]`` becomes triangles ``[a, b, c]`` and ``[a, c, d]``,
    preserving winding.
    """
    quads = np.asarray(quads, dtype=np.int64)
    if quads.ndim != 2 or quads.shape[1] != 4:
        raise ValueError("quads must have shape (n, 4)")
    first = quads[:, [0, 1, 2]]
    second = quads[:, [0, 2, 3]]
    return np.concatenate([first, second], axis=0).reshape(-1, 3)


def _boundary_quads(connectivity: np.ndarray) -> np.ndarray:
    """Quadrilateral faces of a hex mesh that belong to exactly one cell."""
    faces = connectivity[:, _HEX_FACES]                    # (ncell, 6, 4)
    faces = faces.reshape(-1, 4)
    keys = np.sort(faces, axis=1)
    # Identify faces whose sorted vertex tuple is unique (boundary faces).
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    is_new = np.ones(len(sorted_keys), dtype=bool)
    if len(sorted_keys) > 1:
        is_new[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    group_ids = np.cumsum(is_new) - 1
    counts = np.bincount(group_ids)
    unique_mask_sorted = counts[group_ids] == 1
    unique_mask = np.empty(len(faces), dtype=bool)
    unique_mask[order] = unique_mask_sorted
    return faces[unique_mask]


def _structured_boundary_quads(cell_dims: tuple[int, int, int], connectivity: np.ndarray) -> np.ndarray:
    """:func:`_boundary_quads` of a structured grid, written down instead of searched for.

    Face ``f`` of cell ``(i, j, k)`` is on the boundary exactly when the cell
    is first or last along the face's axis (``_HEX_FACES`` order: -z, +z, -y,
    +y, -x, +x).  Flattening the ``(k, j, i, face)`` mask yields the pairs in
    cell-then-face order, the order the sort path keeps them in.
    """
    cx, cy, cz = cell_dims
    on_boundary = np.zeros((cz, cy, cx, 6), dtype=bool)
    on_boundary[0, :, :, 0] = True
    on_boundary[-1, :, :, 1] = True
    on_boundary[:, 0, :, 2] = True
    on_boundary[:, -1, :, 3] = True
    on_boundary[:, :, 0, 4] = True
    on_boundary[:, :, -1, 5] = True
    cells, faces = np.divmod(np.flatnonzero(on_boundary), 6)
    return connectivity[cells[:, None], _HEX_FACES[faces]]


def external_faces(
    mesh: UnstructuredHexMesh | UniformGrid | RectilinearGrid | StructuredGrid,
    scalar_field: str | None = None,
) -> TriangleMesh:
    """Extract the boundary surface of a hexahedral mesh as triangles.

    Parameters
    ----------
    mesh:
        An unstructured hex mesh, whose boundary is found by matching shared
        faces, or any structured grid, whose boundary is known from its
        dimensions; both give the same triangles in the same order.
    scalar_field:
        Optional name of a point field on the mesh to carry onto the surface
        vertices; cell fields are averaged onto the points first.

    Returns
    -------
    TriangleMesh
        Boundary triangles referencing a compacted vertex array.
    """
    if isinstance(mesh, (UniformGrid, RectilinearGrid, StructuredGrid)):
        connectivity = mesh.cell_connectivity()
        quads = _structured_boundary_quads(mesh.cell_dims, connectivity)
    else:
        connectivity = mesh.connectivity
        quads = _boundary_quads(connectivity)
    triangles = quad_to_triangles(quads)

    # Compact to only the vertices referenced by the surface, keeping their
    # order: a vertex's new id is the number of referenced vertices before it.
    referenced = np.zeros(mesh.num_points, dtype=bool)
    referenced[triangles] = True
    used = np.flatnonzero(referenced)
    compacted_triangles = (np.cumsum(referenced) - 1)[triangles]
    vertices = mesh.points()[used]

    scalars = None
    if scalar_field is not None:
        association, values = mesh.field(scalar_field)
        values = np.asarray(values, dtype=np.float64)
        if association == "cell":
            values = _cell_to_point_average(mesh.num_points, connectivity, values)
        scalars = values[used]
    return TriangleMesh(vertices, compacted_triangles, scalars)


def _cell_to_point_average(
    num_points: int, connectivity: np.ndarray, cell_values: np.ndarray
) -> np.ndarray:
    """Average cell-centered values onto points (simple arithmetic mean)."""
    sums = np.zeros(num_points, dtype=np.float64)
    counts = np.zeros(num_points, dtype=np.float64)
    for corner in range(8):
        np.add.at(sums, connectivity[:, corner], cell_values)
        np.add.at(counts, connectivity[:, corner], 1.0)
    counts[counts == 0.0] = 1.0
    return sums / counts

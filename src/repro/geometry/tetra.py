"""Hexahedron-to-tetrahedron decomposition.

The Chapter III study volume-renders unstructured tetrahedral meshes produced
by decomposing hexahedral or rectilinear cells ("This data set was natively on
a rectilinear grid, which we then decomposed into tetrahedrons"; "we divided
these hexahedrons into tetrahedrons").  This module provides that operation:

* :func:`hex_to_tets` splits each hexahedron into five tetrahedra using the
  standard alternating (parity) scheme so that neighbouring cells share
  diagonals and the decomposition is conforming on structured grids.
* :func:`tetrahedralize_uniform_grid` is the convenience wrapper used by the
  data-set generators (Enzo-like and Nek5000-like inputs).

The fragment-sorted volume sampler additionally needs per-tet *face* geometry:

* :func:`tet_face_planes` computes the four inward-oriented unit face planes
  (and the opposite-vertex clearances) of every tetrahedron -- the analytic
  entry/exit span of a pixel column through a tet is the intersection of the
  four half-spaces, evaluated per pixel.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.mesh import (
    RectilinearGrid,
    StructuredGrid,
    UniformGrid,
    UnstructuredHexMesh,
    UnstructuredTetMesh,
)

__all__ = [
    "TET_FACES",
    "hex_to_tets",
    "tet_face_planes",
    "tetrahedralize_uniform_grid",
]

#: The four triangular faces of a tetrahedron; face ``k`` is opposite vertex
#: ``k``, so the barycentric coordinate of vertex ``k`` vanishes on face ``k``.
TET_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], dtype=np.int64)

# Five-tet decomposition of a hexahedron with VTK point ordering
# (0..3 bottom counter-clockwise, 4..7 top).  Two mirror-image variants are
# used in a checkerboard pattern so shared faces agree across neighbours.
_FIVE_TETS_EVEN = np.array(
    [
        [0, 1, 2, 5],
        [0, 2, 3, 7],
        [0, 5, 2, 7],
        [0, 5, 7, 4],
        [2, 7, 5, 6],
    ],
    dtype=np.int64,
)
_FIVE_TETS_ODD = np.array(
    [
        [1, 2, 3, 6],
        [1, 3, 0, 4],
        [1, 6, 3, 4],
        [1, 6, 4, 5],
        [3, 4, 6, 7],
    ],
    dtype=np.int64,
)


def hex_to_tets(
    mesh: UnstructuredHexMesh,
    parity: np.ndarray | None = None,
) -> UnstructuredTetMesh:
    """Split every hexahedron into five tetrahedra.

    Parameters
    ----------
    mesh:
        The hexahedral mesh to decompose.  Point fields are carried over
        unchanged; cell fields are replicated onto the five child tets.
    parity:
        Optional boolean array (one per hex) choosing between the two
        mirror-image decompositions.  Structured grids should pass the cell
        ``(i + j + k) % 2`` checkerboard so the decomposition is conforming;
        when omitted, all cells use the "even" variant.

    Returns
    -------
    UnstructuredTetMesh
        Mesh with ``5 * num_cells`` tetrahedra over the same points.
    """
    n_cells = mesh.num_cells
    if parity is None:
        parity = np.zeros(n_cells, dtype=bool)
    parity = np.asarray(parity, dtype=bool)
    if len(parity) != n_cells:
        raise ValueError("parity must have one entry per hexahedron")

    local = np.where(parity[:, None, None], _FIVE_TETS_ODD[None], _FIVE_TETS_EVEN[None])
    # Map local corner ids through each cell's connectivity.
    connectivity = np.take_along_axis(
        mesh.connectivity[:, None, :].repeat(5, axis=1), local, axis=2
    ).reshape(-1, 4)

    tet_mesh = UnstructuredTetMesh(mesh.points(), connectivity)
    for name, values in mesh.point_fields.items():
        tet_mesh.add_point_field(name, np.asarray(values))
    for name, values in mesh.cell_fields.items():
        tet_mesh.add_cell_field(name, np.repeat(np.asarray(values), 5, axis=0))
    return tet_mesh


def tet_face_planes(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inward-oriented unit face planes of each tetrahedron.

    Parameters
    ----------
    vertices:
        ``(num_tets, 4, 3)`` vertex positions (any 3D coordinate system --
        world space or the renderer's ``(px, py, depth-slot)`` screen space).

    Returns
    -------
    planes, heights:
        ``planes`` is ``(num_tets, 4, 4)``; row ``k`` holds ``(a, b, c, d)``
        with unit normal ``(a, b, c)`` oriented so ``a*x + b*y + c*z + d >= 0``
        for points inside the tet.  ``heights`` is ``(num_tets, 4)``: the
        distance from vertex ``k`` to its opposite face ``k`` -- the scale
        that converts a barycentric tolerance into a plane-distance slack.
        Degenerate (flat) tets yield near-zero heights; callers must mask
        them out the same way they mask near-zero barycentric determinants.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    if vertices.ndim != 3 or vertices.shape[1:] != (4, 3):
        raise ValueError("tet_face_planes expects a (num_tets, 4, 3) vertex array")
    a = vertices[:, TET_FACES[:, 0]]  # (nt, 4, 3)
    b = vertices[:, TET_FACES[:, 1]]
    c = vertices[:, TET_FACES[:, 2]]
    normal = np.cross(b - a, c - a)
    norm = np.linalg.norm(normal, axis=2)
    normal = normal / np.maximum(norm, 1e-300)[..., None]
    offset = -np.einsum("nkj,nkj->nk", normal, a)
    # Signed clearance of the opposite vertex; flip so it is non-negative
    # (the normal then points inward).
    heights = np.einsum("nkj,nkj->nk", normal, vertices) + offset
    sign = np.where(heights < 0.0, -1.0, 1.0)
    planes = np.concatenate([normal * sign[..., None], (offset * sign)[..., None]], axis=2)
    return planes, heights * sign


def _structured_parity(cell_dims: tuple[int, int, int]) -> np.ndarray:
    """Checkerboard parity per cell of a structured grid (x fastest)."""
    cx, cy, cz = cell_dims
    k, j, i = np.meshgrid(np.arange(cz), np.arange(cy), np.arange(cx), indexing="ij")
    return ((i + j + k) % 2 == 1).ravel()


def tetrahedralize_uniform_grid(
    grid: UniformGrid | RectilinearGrid | StructuredGrid,
) -> UnstructuredTetMesh:
    """Decompose any structured grid into a conforming tetrahedral mesh.

    Each hexahedral cell yields five tetrahedra; the checkerboard parity
    pattern guarantees shared faces match between neighbours.  Point and cell
    fields are transferred as in :func:`hex_to_tets`.
    """
    hex_mesh = UnstructuredHexMesh.from_structured(grid)
    parity = _structured_parity(grid.cell_dims)
    return hex_to_tets(hex_mesh, parity)
